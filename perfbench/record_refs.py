"""Record the reference digests of every request on the analytic and census menus.

    python3 perfbench/record_refs.py            # refuses to overwrite
    python3 perfbench/record_refs.py --force    # re-record from this checkout

Run it only on a commit whose outputs are trusted: the benchmark counts any
later output that differs from these digests as a failed request.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from worker import BENCH_DIR, call_cli, call_lib, import_toporna, lib_document


def record(workload: str) -> dict[str, str]:
    import_toporna()
    from toporna import cli, genfun

    import checks

    refs = {}
    for options in workloads.menu(workload):
        for req in options:
            if isinstance(req, workloads.Cli):
                code, out, err = call_cli(cli, req.argv)
                if code != 0:
                    raise SystemExit(f"error: {req.key!r} exited with {code}: {err.strip()}")
                doc = json.loads(out)
            else:
                doc = lib_document(call_lib(genfun, req))
            refs[req.key] = checks.digest(doc)
            print(f"{len(refs):4d} {req.key}", file=sys.stderr)
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--force", action="store_true", help="overwrite existing references")
    args = parser.parse_args(argv)
    for workload in ("analytic", "census"):
        path = BENCH_DIR / "refs" / f"{workload}.json"
        if path.exists() and not args.force:
            print(f"error: {path} exists; pass --force to overwrite it", file=sys.stderr)
            return 1
        refs = record(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(refs)} references to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
