"""Per-pass correctness gate: expected statuses, known answers, and artifacts
byte-identical to the first pass."""

from __future__ import annotations

import hashlib
import json
import os


def job_digests(out_dir: str, summary: dict) -> list:
    """One digest per job over its summary entry and its artifact bytes."""
    digests = []
    for entry in summary["jobs"]:
        h = hashlib.sha256(json.dumps(entry, sort_keys=True).encode())
        if "artifact" in entry:
            with open(os.path.join(out_dir, entry["artifact"]), "rb") as f:
                h.update(f.read())
        digests.append(h.hexdigest())
    return digests


def failed_jobs(case, out_dir: str, summary: dict, reference: list) -> list:
    """Messages for the jobs of one case that fail the gate this pass.

    A job fails when its status is not the expected one (so fail and error
    always fail), when a known answer does not hold, or when its digest
    differs from `reference`, the digests of the first pass.
    """
    entries = summary["jobs"]
    if len(entries) != len(case.statuses):
        return [f"{case.label}: {len(entries)} jobs reported, {len(case.statuses)} expected"] * len(case.statuses)
    digests = job_digests(out_dir, summary)
    failures = []
    for j, entry in enumerate(entries):
        problem = None
        if entry["status"] != case.statuses[j]:
            problem = f"status {entry['status']!r}, expected {case.statuses[j]!r} ({entry.get('error', '')})"
        elif j in case.checks:
            problem = case.checks[j](out_dir, entry)
        if problem is None and digests[j] != reference[j]:
            problem = "outputs differ from the first pass"
        if problem is not None:
            failures.append(f"{case.label} job {j} {entry['type']}: {problem}")
    return failures
