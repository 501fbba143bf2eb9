"""Record the answer of every request a check workload can draw.

    python3 bench/record_expected.py

Writes bench/expected.json: exit code plus witness integer fields (or
the order, class and exponent for ``analyze``) per request.  Answers
fixed by a paper-level fact that suites T2..T9 assert are checked against
that fact and marked with the suite; the rest are marked as recorded.
Run it only on a commit whose answers are trusted: the benchmark counts
every later difference as a failed request.
"""

from __future__ import annotations

import json
import shutil
import subprocess

import workloads
from worker import ROOT, Client


def main() -> int:
    workdir = ROOT / ".bench_work" / "record"
    client = Client(0, workdir)
    answers = {}
    try:
        for request in workloads.universe():
            client.construct(request.group)
            *_, code, payload = client.call(request)
            entry = workloads.answer(request, code, payload)
            fact = workloads.PAPER_FACTS.get(request.key)
            if fact is None:
                entry["source"] = "recorded"
            else:
                want_code, suite = fact
                if code != want_code or (request.command == "analyze" and
                                         entry["structure"] != workloads.WREATH3_STRUCTURE):
                    raise SystemExit(f"{request.key} contradicts {suite}: {entry}")
                entry["source"] = f"paper fact asserted by {suite}"
            answers[request.key] = entry
            print(request.key, entry, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    workloads.EXPECTED_FILE.write_text(json.dumps(
        {"recorded_at": commit, "answers": answers}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
