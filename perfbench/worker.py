"""Run one pass of one workload in this process and print its measurements.

    python3 perfbench/worker.py --workload analytic --seed 7 --workdir DIR [--trace]

``run.py`` starts a fresh worker for every pass, as a command-line user
gets a fresh process for every call.  Set-up is timed from the first line
of this file to the end of the warm-up: importing toporna, building the
pass, loading the reference digests, sampling the structures the pass
analyses and running the warm-up requests.  Each request of the pass is
then timed on its own, in-process and single-threaded, and checked after
its timer has stopped.  With ``--trace`` the layer spans of
``tracing.py`` are installed first, and the per-layer metrics of the pass
are added to the output.
"""

from time import perf_counter, process_time

_STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def import_toporna():
    """Import toporna from this checkout's ``src``, never from anywhere else."""
    package = SRC / "toporna"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no toporna sources at {package}")
    sys.path.insert(0, str(SRC))
    import toporna

    if Path(toporna.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported toporna from {toporna.__file__}, not {package}")
    return toporna


def call_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def call_lib(genfun, req):
    cls_ = genfun.StructureClass(req.lam, req.r)
    if req.family == "loop_variance":
        jet = genfun.loop_marked_dg_jet(cls_, req.genus, req.mark, req.order)
        return genfun.marks_variance(jet, req.order - 1)
    return genfun.expected_marks(genfun.dg_jet(cls_, req.genus, req.order), req.order - 1)


def lib_document(value) -> dict:
    """The JSON document a library request's exact result is checked as."""
    return {"values": {"result": f"{value.numerator}/{value.denominator}"}}


class Pass:
    """The requests of one pass, ready to run, with what their checks need."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from toporna import cli, genfun
        from toporna.diagram import emit_structure
        from toporna.sampler import StructureSampler

        self.cli, self.genfun = cli, genfun
        self.workload = workload
        self.refs = {}
        if workload in ("analytic", "census"):
            with open(BENCH_DIR / "refs" / f"{workload}.json", encoding="utf-8") as handle:
                self.refs = json.load(handle)
        samplers: dict[tuple, object] = {}

        def materialize(req):
            if not isinstance(req, workloads.OnSampled):
                return req, None
            key = (req.lam, req.r, req.genus, req.n)
            if key not in samplers:
                samplers[key] = StructureSampler(genfun.StructureClass(req.lam, req.r), req.genus, req.n)
            draws = samplers[key].sample_many(req.n, req.count, req.seed)
            texts = [emit_structure(d) for d in draws]
            if req.command == "decompose":
                path = workdir / f"structures-{len(list(workdir.iterdir()))}.txt"
                path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
                argv = ("decompose", "--file", str(path))
            else:
                argv = (req.command, texts[0])
            return workloads.Cli(argv + ("--format", "json")), (req, texts)

        self.requests = [materialize(r) for r in workloads.make_pass(workload, seed)]
        self.warmup = [materialize(r) for r in workloads.WARMUP[workload]]

    def execute(self, req):
        """Run one request: ``(exit code, stdout, stderr)`` for argv, else the value."""
        if isinstance(req, workloads.Cli):
            return call_cli(self.cli, req.argv)
        return call_lib(self.genfun, req)

    def check(self, req, sampled, result) -> str | None:
        """Why ``result`` is wrong, or ``None``; runs after the request's timer stopped."""
        try:
            return self._check(req, sampled, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:  # malformed output
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check(self, req, sampled, result) -> str | None:
        import checks

        if isinstance(req, workloads.Cli):
            code, out, err = result
            if code != 0:
                return f"exit code {code}: {err.strip()[-300:]}"
            doc = json.loads(out)
        else:
            doc = lib_document(result)
        if sampled is not None:
            spec, texts = sampled
            return checks.check_on_sampled(spec.command, texts, spec.genus, doc)
        if self.workload == "sample":
            return checks.check_sample(req.argv, doc)
        return checks.check_reference(doc, self.refs.get(req.key))


def reference_ms() -> float:
    """Time a fixed piece of interpreter and big-integer work that runs no toporna code, in ms.

    The machine's speed drifts by up to a factor of two over seconds, and
    this time drifts with it; ``run.py`` scales the pass's times by it.
    """
    started = perf_counter()
    x = 1
    for i in range(10_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    big = 7**2000
    for i in range(20):
        x = (x * big + i) % (big + 1)
    return (perf_counter() - started) * 1000.0


def timed_requests(run: Pass, tracer) -> tuple[list[dict], list[float], float, int]:
    """Run the pass; returns per-request records, reference times, CLI CPU seconds and CLI output bytes.

    A reference time is taken before every request and after the last one.
    """
    records = []
    reference = []
    cli_cpu = 0.0
    cli_bytes = 0
    for req, sampled in run.requests:
        reference.append(reference_ms())
        span = tracer.begin_request() if tracer else None
        started, cpu = perf_counter(), process_time()
        try:
            result, raised = run.execute(req), None
        except Exception as exc:  # a failed request is counted, not fatal
            result, raised = None, f"{type(exc).__name__}: {exc}"
        elapsed, cpu = perf_counter() - started, process_time() - cpu
        if tracer:
            tracer.end_request(span)
        if isinstance(req, workloads.Cli):
            cli_cpu += cpu
            cli_bytes += len(result[1].encode()) if result else 0
        error = raised or run.check(req, sampled, result)
        key = sampled[0].key if sampled else req.key
        records.append({"key": key, "ms": elapsed * 1000.0, "error": error})
    reference.append(reference_ms())
    return records, reference, cli_cpu, cli_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="empty directory for the files the pass reads")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    import_toporna()

    run = Pass(args.workload, args.seed, args.workdir)
    for req, _ in run.warmup:
        result = run.execute(req)
        if isinstance(req, workloads.Cli) and result[0] != 0:
            raise SystemExit(f"error: warm-up request {req.key!r} failed: {result[2].strip()}")
    setup_s = perf_counter() - _STARTED

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    records, reference, cli_cpu, cli_bytes = timed_requests(run, tracer)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": records,
        "reference_ms": reference,
    }
    if tracer:
        uninstall()
        report["layers"] = tracing.layer_metrics(tracer, cli_cpu, cli_bytes)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
