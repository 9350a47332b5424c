#!/usr/bin/env python3
"""claimcheck benchmark: seeded offline workloads, end to end and per layer.

    python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from the seed in a child process,
then repeats passes over them until ``--seconds`` are used. A pass is what a
user of the CLI runs in batch: set-up (``ingest`` + ``normalize_articles`` +
``build_runtime``), ``run_pipeline`` + ``write_records`` for p1, p2 and p3,
then train, evaluate and annotate on the p1 records. Every record is checked
against the generator's ground truth and every records file is hashed; a
hash that changes between passes, or between traced and untraced runs of
the same seed and sources, fails the run.

``--trace 0`` reports the end-to-end metrics. Each timing is printed as its
best sample, median and highest supported percentile with the sample count;
the reported value is the best sample, because on a shared machine the
slowdowns other tenants cause last seconds to minutes and move medians by
up to 40% between runs, while the best sample repeats within a few percent.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "claimcheck" / "__init__.py").is_file():
    sys.exit(f"perfbench: no claimcheck sources under {SRC}; run it from a claimcheck checkout")
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from claimcheck import config as cc_config  # noqa: E402
from claimcheck import corpus, pipeline, providers, veracity  # noqa: E402
from claimcheck.errors import FatalSearchError  # noqa: E402

HERE = Path(__file__).resolve().parent
RUNS_DIR = ROOT / ".perfbench_runs"
VARIANTS = tuple(pipeline.PipelineVariant)
MIN_PASSES = 3
EXTRA_SETUPS = 4  # set-up is short, so each untraced pass samples it this many extra times
TRAIN_EVAL_EVERY_S = 1.0  # spreads train/eval samples over the pass, whatever the workload's pass length
CHILD_TIMEOUT_S = 170
REPLAY_ENDPOINT = "https://search.invalid/api"


def _refuse_network(url: str, headers: dict, timeout: float):
    raise FatalSearchError(f"replay must be served from the response cache; miss for {url}")


@dataclass
class Inputs:
    shape: workloads.Shape
    workdir: Path
    config: cc_config.PipelineConfig
    truth: dict

    @property
    def corpus_path(self) -> Path:
        return self.workdir / "corpus.jsonl"

    def records_path(self, name: str) -> Path:
        return self.workdir / f"records_{name}.jsonl"

    def shard_path(self, name: str, shard: int) -> Path:
        return self.workdir / f"records_{name}.{shard:02d}.jsonl"


def generate(shape: workloads.Shape, seed: int, workdir: Path) -> Inputs:
    """Generate inputs in a child process, so their memory is not the program's peak."""
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", shape.name, "--seed", str(seed), "--out", str(workdir)],
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    settings = cc_config.ProviderSettings(fixture_path=str(workdir / "search.json"))
    config = cc_config.PipelineConfig(provider=settings)
    truth = json.loads((workdir / "truth.json").read_text(encoding="utf-8"))
    gc.freeze()  # the ground truth lives all run; keep it out of the collections between steps
    return Inputs(shape, workdir, config, truth)


def setup(inputs: Inputs):
    """What ``claimcheck run`` pays before its first article."""
    articles = corpus.normalize_articles(corpus.ingest(inputs.corpus_path, "fixture").articles).articles
    provider = None
    if inputs.shape.provider == "cache":
        provider = providers.LiveSearchProvider(
            endpoint=REPLAY_ENDPOINT, cache_dir=inputs.workdir / "cache", transport=_refuse_network
        )
    return articles, pipeline.build_runtime(inputs.config, provider=provider)


def train_eval(inputs: Inputs) -> tuple[float, int, int]:
    """``claimcheck train`` then ``evaluate --annotated-out`` on the p1 records.

    Returns label accuracy, records read and records annotated with a prediction.
    """
    config = cc_config.PipelineConfig()
    records = pipeline.read_records(inputs.records_path("p1"))
    train_config = replace(config.train, learning_rate=config.classifier.learning_rate)
    train_part, val_part, test_part = veracity.split_dataset(records, train_config)
    train_set, val_set, test_set = (pipeline.build_examples(part, "concat") for part in (train_part, val_part, test_part))
    backend = cc_config.build_classifier(config.classifier)
    veracity.train(backend, train_set, val_set, train_config)
    model_path = inputs.workdir / "model.json"
    backend.save(model_path)
    model = veracity.HashedLinearClassifier.load(model_path)
    report = veracity.evaluate(model, test_set)
    annotated = pipeline.annotate_predictions(records, model)
    pipeline.write_records(annotated, inputs.records_path("annotated"))
    predicted = sum(1 for r in annotated if r.predicted_label is not None)
    return report.label_accuracy, len(records), predicted


@dataclass
class Pass:
    times: dict[str, list[float]]  # seconds of each timed step, by step name
    failed: int
    attempted: int
    problems: list[str]
    hashes: dict[str, str]

    @property
    def wall_s(self) -> float:
        return sum(sum(samples) for samples in self.times.values())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def run_pass(inputs: Inputs, tracer: tracing.Tracer | None = None, extra_samples: bool = False) -> Pass:
    """One timed pass; oracle checks and hashing happen outside the timed steps.

    The corpus is cut into equal shards, each run and written per variant
    as one ``run_pipeline`` + ``write_records`` call, with the variants
    interleaved shard by shard, so each variant's samples spread over the
    whole pass. The shard files concatenate to exactly the bytes of one
    whole-corpus records file. ``extra_samples`` adds set-ups after the
    shards and, between shards, a train/eval on the previous pass's p1
    records every TRAIN_EVAL_EVERY_S; traced passes leave them out so that
    every layer counts one pass.
    """
    times: dict[str, list[float]] = {"setup": [], "train_eval": [], **{v.value: [] for v in VARIANTS}}
    problems: list[str] = []
    failed = attempted = 0

    def timed(step: str, call, *args):
        gc.collect()
        if tracer is not None:
            tracer.phase = step
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            times[step].append(time.perf_counter() - start)

    def checked_train_eval() -> None:
        nonlocal failed, attempted
        attempted += 1
        try:
            accuracy, read, predicted = timed("train_eval", train_eval, inputs)
            if not 0.0 <= accuracy <= 1.0 or predicted != read:
                raise ValueError(f"label accuracy {accuracy}, {predicted} of {read} records annotated")
        except Exception as exc:  # noqa: BLE001  (a failed train/eval step is counted, not fatal)
            problems.append(f"train_eval: {type(exc).__name__}: {exc}")
            failed += 1

    articles, runtime = timed("setup", setup, inputs)
    last_train_eval = time.perf_counter()
    size = inputs.shape.shard_articles
    shards = range(len(articles) // size)
    for shard in shards:
        part = articles[shard * size : (shard + 1) * size]
        for variant in VARIANTS:
            path = inputs.shard_path(variant.value, shard)
            try:
                timed(variant.value, lambda: pipeline.write_records(pipeline.run_pipeline(part, variant, runtime), path))
            except Exception as exc:  # noqa: BLE001  (a failed shard is counted, not fatal)
                problems.append(f"{variant.value} shard {shard}: {type(exc).__name__}: {exc}")
                path.unlink(missing_ok=True)
        if extra_samples and time.perf_counter() - last_train_eval >= TRAIN_EVAL_EVERY_S and inputs.records_path("p1").exists():
            checked_train_eval()
            last_train_eval = time.perf_counter()
    del runtime
    if extra_samples:
        for _ in range(EXTRA_SETUPS):
            timed("setup", setup, inputs)

    for variant in VARIANTS:
        with inputs.records_path(variant.value).open("wb") as whole:
            for shard in shards:
                path = inputs.shard_path(variant.value, shard)
                if path.exists():
                    whole.write(path.read_bytes())
                    path.unlink()
        lines = inputs.records_path(variant.value).read_text(encoding="utf-8").splitlines()
        found = oracle.check_records([json.loads(line) for line in lines], inputs.truth)
        attempted += len(articles)
        failed += len(found) + len(articles) - len(lines)
        problems += [f"{aid}/{v}: {'; '.join(msgs)}" for aid, v, msgs in found]
    checked_train_eval()

    hashes = {name: _sha256(inputs.records_path(name)) for name in [v.value for v in VARIANTS] + ["annotated"]}
    return Pass(times, failed, attempted, problems, hashes)


def describe(samples: list[float]) -> str:
    """Best, median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"n={n}, best {min(samples):.4f} s, median {statistics.median(samples):.4f} s"
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return f"{text}, p{p:g} {statistics.quantiles(samples, n=1000)[int(p * 10) - 1]:.4f} s"
    return f"{text}, max {max(samples):.4f} s"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "claimcheck").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_known_hashes(workload: str, seed: int, hashes: dict[str, str]) -> list[str]:
    """Compare with earlier runs of the same workload, seed and sources (traced or not)."""
    path = RUNS_DIR / f"hashes-{workload}-seed{seed}-{source_digest()[:16]}.json"
    if path.exists():
        known = json.loads(path.read_text(encoding="utf-8"))
        return [f"{name} records hash {hashes[name]} != {known[name]} of an earlier run" for name in known if known[name] != hashes.get(name)]
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(hashes, sort_keys=True), encoding="utf-8")
    tmp.replace(path)
    return []


def measure(inputs: Inputs, seconds: float, traced: bool) -> tuple[dict, list[Pass], dict, tracing.Tracer | None]:
    """Repeat passes until ``seconds`` are used.

    Returns the metrics, every pass, a detail line per metric and the tracer
    of the last traced pass.
    """
    started = time.perf_counter()
    untraced: list[Pass] = []
    traced_passes: list[tuple[Pass, dict]] = []
    last = 0.0
    tracer = None
    if traced:
        untraced.append(run_pass(inputs))  # every traced pass then sits between two untraced ones
    while len(untraced) < (2 if traced else MIN_PASSES) or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        if traced:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                done = run_pass(inputs, tracer)
            traced_passes.append((done, tracing.layer_metrics(tracer, done.wall_s)))
        untraced.append(run_pass(inputs, extra_samples=not traced))
        last = time.perf_counter() - began

    passes = untraced + [p for p, _ in traced_passes]
    if not traced:
        samples = {step: [t for p in untraced for t in p.times[step]] for step in untraced[0].times}
        shard = inputs.shape.shard_articles
        metrics = {
            "setup_s": min(samples["setup"]),
            **{f"{v.value}_articles_per_s": shard / min(samples[v.value]) for v in VARIANTS},
            "train_eval_s": min(samples["train_eval"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details = {
            "setup_s": describe(samples["setup"]),
            **{f"{v.value}_articles_per_s": f"{shard}-article shards; " + describe(samples[v.value]) for v in VARIANTS},
            "train_eval_s": describe(samples["train_eval"]),
            "peak_rss_mb": "peak resident set of this process; 1 sample",
        }
    else:
        layer = [m for _, m in traced_passes]
        metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        details = {}
        traced_walls = [p.wall_s for p, _ in traced_passes]
        untraced_walls = [p.wall_s for p in untraced]
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
        details["trace.overhead_ratio"] = (
            f"median traced pass {statistics.median(traced_walls):.4f} s / median untraced pass "
            f"{statistics.median(untraced_walls):.4f} s; n={len(traced_walls)}+{len(untraced_walls)}"
        )
    return metrics, passes, details, tracer


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    shape = workloads.SHAPES[args.workload]
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = RUNS_DIR / f"{shape.name}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = generate(shape, args.seed, workdir)
        metrics, passes, details, tracer = measure(inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(RUNS_DIR / f"{shape.name}-seed{args.seed}-spans.jsonl")

    problems = [msg for p in passes for msg in p.problems]
    first = passes[0].hashes
    problems += [f"{name} records hash changed between passes" for name in first if any(p.hashes[name] != first[name] for p in passes)]
    problems += check_known_hashes(shape.name, args.seed, first)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(shape.name, "not a BENCHMARK.json workload; see README.md")
    print(f"workload {shape.name} (seed {args.seed}, {shape.articles} articles, {len(passes)} passes, trace {args.trace}): {why}")
    for name in units:
        print(f"  {name:<32} {metrics[name]:>14.6g} {units[name]:<11} {details.get(name, '')}")
    print(f"  {'article_error_ratio':<32} {failed / attempted:>14.6g} {'failed/attempted':<11} {failed} of {attempted}")
    for name, digest in first.items():
        print(f"  sha256 {name:<10} {digest}")
    for message in problems[:20]:
        print(f"  FAIL {message}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = dict(result, workload=shape.name, seed=args.seed, trace=args.trace, hashes=first,
                  times=[p.times for p in passes], problems=problems[:100])
    (RUNS_DIR / f"{shape.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    results = {}
    for name in workloads.SHAPES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + args.seconds * 2)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    correct = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}.{k}": v for w, r in results.items() if r for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="claimcheck benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.SHAPES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_all(args) if args.workload == "all" else run_workload(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
