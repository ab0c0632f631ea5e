"""The corpus CLI reports are pinned byte for byte.

tests/golden/corpus.json holds, for criterion 9's jobs over the bundled
corpus (`perfbench/workloads.corpus_jobs`) and one seeded `mc` job, the
exit code and the sha256 of stdout.  Every job runs in a fresh
interpreter from the repository root with relative paths, so no absolute
path enters a report.  A refactor must leave every digest as it is; a
change that alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_corpus_reports.py

and says so.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "corpus.json"
EF = "src/dgdescent/data/algebra_ef.json"
T3 = "src/dgdescent/data/artin_t3.json"
SEEDED = [["mc", EF, "--base", T3, "--samples", "4", "--seed", "808"]]


def corpus_jobs():
    spec = importlib.util.spec_from_file_location(
        "dgdescent_bench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.corpus_jobs() + SEEDED


def run_job(argv):
    """(exit code, sha256 of stdout) of one job in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("PYTHONSTARTUP", None)
    res = subprocess.run([sys.executable, "-m", "dgdescent.cli", *argv],
                         cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                         capture_output=True, timeout=300)
    return res.returncode, hashlib.sha256(res.stdout).hexdigest()


def test_corpus_reports_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert [job["argv"] for job in golden] == corpus_jobs()
    for job in golden:
        code, digest = run_job(job["argv"])
        assert (code, digest) == (job["code"], job["stdout_sha256"]), \
            " ".join(job["argv"])


if __name__ == "__main__":
    records = []
    for argv in corpus_jobs():
        code, digest = run_job(argv)
        records.append({"argv": argv, "code": code, "stdout_sha256": digest})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
