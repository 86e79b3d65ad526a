"""Record bench/reference.json: the exit code and stdout SHA-256 of every
op of pass 0 at benchmark seed 0 (the CLI default seeds), and the failing
relation probes that relations-q must reproduce at every seed.

    python3 bench/record.py

Run it only on a commit whose outputs are known good: every later run
compares byte for byte against what it writes.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import REFERENCE, Runner, import_legmon
from workloads import WORKLOADS, relations_failing


def main() -> int:
    cli = import_legmon()
    digests = {}
    relations = None
    for name in WORKLOADS:
        runner = Runner(cli, name, 0, {"digests": {}})
        for op, rc, out, *_ in runner.ops_of_pass(0):
            if name == "relations-q":
                relations = relations_failing(json.loads(out))
            if not op.check(rc, out, {"relations_failing": relations}):
                sys.exit(f"record: {op.key} fails its check (exit {rc})")
            digests[op.key] = [rc, hashlib.sha256(out.encode("utf-8")).hexdigest()]
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items())
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "relations_failing": {json.dumps(relations)},\n'
                 f' "digests": {{\n{rows}\n }}\n}}\n')
    print(f"record: {len(digests)} ops -> {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
