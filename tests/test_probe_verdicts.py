"""The verdicts of the probe corpus (``corpus.probe_corpus``), compared with
``golden/probe-verdicts.txt``: one line per spec and check, giving the
check's status, its refuted flag and its witness count.  The checks are
``foscms``, ``soscms`` (where the spec has Hessians), ``calmness`` (first
order), ``aubin`` (corollary mode), ``dir-reg`` at (0, 0), ``foscms-joint``
and ``aubin-theorem`` (theorem mode with joint subregularity asserted).

Tier-1 compares the first ``TIER1`` specs.  From the repository root,

    PYTHONPATH=src python tests/test_probe_verdicts.py [--write]

compares all of them (exit 1 on a difference, naming the first ones), or
rewrites the file.  A change that is meant to alter a verdict rewrites it
and lists the changed lines.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

from corpus import probe_corpus
from polyvar.certify import (
    check_aubin,
    check_calmness_constraint,
    check_directional_metric_regularity,
    check_foscms,
    check_foscms_joint,
    check_soscms,
)
from polyvar.linalg import QVector

GOLDEN = Path(__file__).parent / "golden" / "probe-verdicts.txt"
TIER1 = 60


def verdict_lines(name: str, spec) -> list[str]:
    checks = [("foscms", check_foscms)]
    if spec.hessians is not None:
        checks.append(("soscms", check_soscms))
    checks += [
        ("calmness", lambda s: check_calmness_constraint(s, "first")),
        ("aubin", lambda s: check_aubin(s, "corollary")),
        ("dir-reg", lambda s: check_directional_metric_regularity(s, QVector.zero(s.n), QVector.zero(s.m))),
        ("foscms-joint", check_foscms_joint),
        ("aubin-theorem", lambda s: check_aubin(s, "theorem", assume_subregular=True)),
    ]
    lines = []
    for check, run in checks:
        cert = run(spec)
        lines.append(f"{name} {check} {cert.status} refuted={cert.refuted} witnesses={len(cert.witnesses)}")
    return lines


def corpus_lines(count: int | None = None) -> list[str]:
    return [line for name, spec in islice(probe_corpus(), count) for line in verdict_lines(name, spec)]


def golden_lines(count: int | None = None) -> list[str]:
    """The golden lines of the first ``count`` specs (all with None)."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    keep = set(list(dict.fromkeys(line.split(" ", 1)[0] for line in lines))[:count])
    return [line for line in lines if line.split(" ", 1)[0] in keep]


def test_first_probe_specs_match_golden_verdicts():
    assert corpus_lines(TIER1) == golden_lines(TIER1)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("\n".join(corpus_lines()) + "\n", encoding="utf-8")
    else:
        got, want = corpus_lines(), golden_lines()
        diff = [(g, w) for g, w in zip(got, want) if g != w]
        for g, w in diff[:10]:
            print(f"got  {g}\nwant {w}")
        if diff or len(got) != len(want):
            sys.exit(f"{len(diff)} verdict lines differ; {len(got)} lines against {len(want)} in the golden")
        print(f"{len(got)} verdict lines match")
