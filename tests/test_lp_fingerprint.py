"""Smoke test of tools/lp_fingerprint.py, the LP parity check.

Pins the structure of its output, not the hashes: a change that moves an
LP moves a hash on purpose, but one that silently drops a group of lines
(say, the warm-model lines after lp_core._WarmLP is renamed) would hide
exactly what the tool is run to show.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lp_fingerprint.py"
SHA = "[0-9a-f]{64}"


def test_fingerprint_prints_every_group_of_lines():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [line.split(" result ")[0] for line in lines
               if " result " in line]
    warm_calls = [label for label in results
                  if label.endswith("ess min-lambda")]
    assert len(warm_calls) >= 3, results
    for label in warm_calls:
        pattern = re.compile(
            rf"{re.escape(label)} warm #0 base {SHA} probes [-+!]+")
        assert any(pattern.fullmatch(line) for line in lines), label
    assert any(re.fullmatch(rf"\S.* #0 {SHA}", line) for line in lines)
    # synthesis on a polytope runs on vertex cuts: a line per solve
    for label, lam in (("sys1 sign ess min-lambda", r"[0-9.e-]+"),
                       ("sys1 sign ss min-lambda", "None"),
                       ("sys2 sign ess feasibility", "None"),
                       ("sys1 aarc ess min-lambda", r"[0-9.e-]+")):
        pattern = re.compile(rf"{label} cuts #0 lam={lam} [-+!] "
                             r"cuts=\d+ rounds=\d+")
        assert any(pattern.fullmatch(line) for line in lines), label
    # the Farkas LP of a family that cannot be cut is solved fresh, after
    # the polytope's nonemptiness LP (#0), and never in a warm model
    dense = "sys1 dense aarc ess feasibility"
    assert any(re.fullmatch(rf"{dense} #1 {SHA}", line) for line in lines)
    assert not any(line.startswith(f"{dense} warm ") for line in lines)
    # every synthesis call's result line ends in a digest of its whole
    # SynthResult, certificate and extras
    checks = ("sys1 prune T=100", "sys2 prune T=60", "sys2 audit")
    synthesis = [label for label in results
                 if not label.startswith("cli ") and label not in checks]
    assert len(synthesis) == 15, results
    for label in synthesis:
        pattern = re.compile(rf"{re.escape(label)} result \S+ lambda=\S+ "
                             rf"sha256 {SHA}")
        assert any(pattern.fullmatch(line) for line in lines), label
    for label, result in (
            ("sys1 prune T=100", rf"\d+ faces sha256 {SHA} lps=\d+"),
            ("sys2 prune T=60", rf"\d+ faces sha256 {SHA} lps=\d+"),
            ("sys2 audit",
             r"verified=(True|False) worst_margin=\S+ i=\d+ lps=\d+")):
        pattern = re.compile(rf"{label} result {result}")
        assert any(pattern.fullmatch(line) for line in lines), label
