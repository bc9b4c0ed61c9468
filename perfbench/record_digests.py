"""Record the sha256 of every output the benchmark can produce.

    python3 perfbench/record_digests.py

Runs every operation in each workload's universe, plus the trace probes,
once against this checkout's src/, requires each to pass the semantic checks
in ops.py, and writes perfbench/digests.json. Run it only on the commit whose
outputs are the reference: the benchmark then fails any later program whose
JSON, markdown or certificate bytes differ.
"""

from __future__ import annotations

import json
import sys

import ops
from run import DIGESTS, commit_hash, session, src_digest


def main() -> int:
    recorded: dict[str, list[str]] = {}
    problems: list[str] = []
    with session() as (cli, _):
        every_op = [op for w in ops.WORKLOADS for op in ops.universe(w)]
        every_op += dict.fromkeys(op for probe in ops.probe_ops().values() for op in probe)
        for op in every_op:
            outcome = ops.execute(op, cli)
            found = ops.check(outcome, None)
            problems += found
            if not found:
                recorded[op.key] = outcome.digests
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    document = {"commit": commit_hash(), "src_sha256": src_digest(), "ops": recorded}
    DIGESTS.write_text(json.dumps(document, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} operations in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
