"""Output checks: each returns a list of problems, empty when the output is right."""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence


def check_campaign(
    spool_lines: Sequence[str],
    spool_digest: str,
    recorded_digest: Optional[str],
    roundtrip: Callable[[str], str],
) -> List[str]:
    """The spool matches the digest recorded for its seed and re-decodes exactly.

    ``roundtrip`` maps one spool line through ``record_from_json`` and back
    through ``record_to_json``; the spool format promises that is the
    identity.  ``recorded_digest`` is ``None`` on the first run of a seed.
    """
    problems = []
    if recorded_digest is not None and spool_digest != recorded_digest:
        problems.append(
            f"campaign spool sha256 {spool_digest} != recorded {recorded_digest}"
        )
    for index, line in enumerate(spool_lines):
        if roundtrip(line) != line:
            problems.append(f"spool line {index} does not round-trip")
            break
    return problems


def check_spool_diagnose(pass_digests: Sequence[str], reference: str) -> List[str]:
    """Every full replay of the spool hashed to the offline reference digest."""
    if not pass_digests:
        return ["no full pass over the spool completed"]
    bad = [i for i, digest in enumerate(pass_digests) if digest != reference]
    if bad:
        return [f"report digest of pass(es) {bad} != diagnose_batch reference"]
    return []


def check_served(
    first_bodies: Dict[int, bytes],
    expected: Sequence[str],
    divergent: int,
    canonical: Callable[[object], str],
) -> List[str]:
    """Served ``diagnoses`` equal the canonical offline ``diagnose_batch`` output.

    ``first_bodies`` holds the first response body seen per request index;
    ``divergent`` counts later responses whose bytes differed from it.
    """
    problems = []
    if not first_bodies:
        problems.append("no successful response to check")
    if divergent:
        problems.append(f"{divergent} responses differ from the first reply")
    for index, body in sorted(first_bodies.items()):
        try:
            diagnoses = json.loads(body)["diagnoses"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"request {index}: unreadable response ({exc})")
            break
        if canonical(diagnoses) != expected[index]:
            problems.append(f"request {index}: served diagnoses != offline")
            break
    return problems
