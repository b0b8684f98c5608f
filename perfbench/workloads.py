"""The benchmark's workloads: their jobs, how a job runs, and its output check.

A job is one (protocol, p) run over a fixed setting grid, certified the way
the command line certifies it.  It fails if it raises or if its output check
fails; either way the benchmark keeps going and counts it.

Why these workloads:

* ``grid-certify`` is the acceptance criterion-1 mix (every applicable
  protocol at every p of the criterion, 20 setting pairs) scaled down in
  rounds only.  Its time goes to the bulk vectorised path (``sampling``,
  ``protocols``), so it stands in for Tier-1 wall time.
* ``cost-sweep`` is the ``lhvsim sweep`` traffic: one setting pair per p at
  a large round count, so every per-round array is far past the per-core
  L2.  It uses the envelope rejection sampler heavily and shows memory and
  parallelism work.
* ``wire-audit`` runs Alice and Bob as processes over sockets, one round at
  a time, so bulk-draw speed-ups should not move it while framing and
  transcript work should.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from lhvsim import (
    ProtocolId,
    State,
    audit_transcript,
    default_setting_pairs,
    n_of_p,
    run_networked,
    simulate,
    verification_report,
)
from lhvsim.protocols import (
    CH_ALICE,
    CH_SAMPLER,
    CH_SHARED,
    BatchResult,
    SimulationResult,
    _aggregate,
    alice_decide,
    bob_decide,
    check_applicable,
    draw_alice_private,
    draw_shared,
)
from lhvsim.sampling import RhoTildeMaxSampler, RhoTildeSampler, make_generator
from lhvsim.verify import report_rows_csv, report_to_json
from lhvsim.wire import Transcript
from tracing import NullTracer

WORKLOADS = ("grid-certify", "cost-sweep", "wire-audit")

GRID_PS = (0.5, 0.7, 0.835, 0.9, 0.933, 0.95, 1.0)
GRID_PAIRS = 20
SWEEP_PS = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0)
WIRE_CASES = (
    (ProtocolId.IMPROVED_ONE_BIT, 0.9),  # silent rounds
    (ProtocolId.TRIT, 0.7),  # a symbol every round
    (ProtocolId.LOCAL_CONTENT, 0.7),  # 24-byte vector messages
)
WIRE_PAIRS = 2

# rounds per setting pair at scale 1
GRID_ROUNDS = 5_000
SWEEP_ROUNDS = 1_000_000
WIRE_ROUNDS = 250

# the bit-exactness golden: grid-certify jobs at a fixed size and fixed seeds
GOLDEN_ROUNDS = 2_000
GOLDEN_SEEDS = (1, 2)

TRIT_BITS = math.log2(3.0)
# mean bits may differ from N(p) by sampling noise only; 5 sigma is a
# false-alarm rate below 1e-6 per check
COST_SIGMAS = 5.0


def job_seed(seed: int, name: str) -> int:
    """Per-job seed, stable across processes (crc32, never ``hash()``)."""
    return zlib.crc32(f"{seed}:{name}".encode())


@dataclass(frozen=True)
class Job:
    workload: str
    protocol: ProtocolId
    p: float
    pairs: tuple
    rounds: int
    seed: int
    workers: int = 1

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.protocol.value}/p={self.p!r}"


def _applicable(protocol: ProtocolId, p: float) -> bool:
    try:
        check_applicable(protocol, State(p))
    except ValueError:
        return False
    return True


def _sweep_protocol(p: float) -> ProtocolId:
    # the rule of ``lhvsim sweep``: improved-one-bit wherever N(p) <= 1
    return ProtocolId.IMPROVED_ONE_BIT if p > 0.5 and n_of_p(p) <= 1.0 else ProtocolId.TRIT


def _make_jobs(workload, cases, n_pairs, rounds, seed, workers=1) -> list:
    pairs = tuple(default_setting_pairs(n_pairs))
    jobs = [Job(workload, protocol, p, pairs, rounds, 0, workers) for protocol, p in cases]
    return [replace(job, seed=job_seed(seed, job.name)) for job in jobs]


def build_jobs(workload: str, seed: int, scale: float = 1.0) -> list:
    """The job list of one workload; inputs depend only on ``seed`` and ``scale``."""

    def size(base: int) -> int:
        return max(1, round(base * scale))

    if workload == "grid-certify":
        cases = [(pid, p) for pid in ProtocolId for p in GRID_PS if _applicable(pid, p)]
        return _make_jobs(workload, cases, GRID_PAIRS, size(GRID_ROUNDS), seed)
    if workload == "cost-sweep":
        cases = [(_sweep_protocol(p), p) for p in SWEEP_PS]
        return _make_jobs(workload, cases, 1, size(SWEEP_ROUNDS), seed, os.cpu_count() or 1)
    if workload == "wire-audit":
        return _make_jobs(workload, WIRE_CASES, WIRE_PAIRS, size(WIRE_ROUNDS), seed)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    job: Job
    rounds: int = 0
    sim_s: float = 0.0  # simulate or run_networked
    certify_s: float = 0.0  # simulation through every rendered artifact
    error: Optional[str] = None  # "ExceptionClass: message" of a job that raised
    check_failures: list = field(default_factory=list)
    counts: Optional[list] = None  # per-pair outcome counts
    settings_csv: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.check_failures)


def run_job(job: Job, tracer) -> Outcome:
    out = Outcome(job)
    start = time.perf_counter()
    try:
        with tracer.span("job", job=job.name):
            if job.workload == "wire-audit":
                _run_networked_job(job, tracer, out)
            else:
                _run_inprocess_job(job, tracer, out)
    except Exception as exc:  # counted as a failed job, never a crash of the run
        out.error = f"{type(exc).__name__}: {exc}"
        # the time a failed job took is still spent, but its rounds do not
        # count, so a failure never makes a pass look faster
        elapsed = time.perf_counter() - start
        out.rounds = 0
        out.sim_s = out.sim_s or elapsed
        out.certify_s = out.certify_s or elapsed
    return out


def _certify(sim, tracer):
    with tracer.span("verify.report"):
        report = verification_report(sim)
    with tracer.span("verify.render"):
        csv = report_rows_csv(report)
        report_to_json(report)
    return report, csv


def _run_inprocess_job(job: Job, tracer, out: Outcome) -> None:
    state = State(job.p)
    t0 = time.perf_counter()
    if tracer.enabled:
        sim = traced_simulate(job, state, tracer)
    else:
        sim = simulate(job.protocol, state, job.pairs, job.rounds, job.seed, workers=job.workers)
    t1 = time.perf_counter()
    report, csv = _certify(sim, tracer)
    t2 = time.perf_counter()
    out.rounds, out.sim_s, out.certify_s = sim.total_rounds, t1 - t0, t2 - t0
    out.counts = [s.counts.tolist() for s in sim.settings]
    out.settings_csv = csv

    if not report.passed:
        out.check_failures.append(f"max TVD {report.max_tvd} above {report.tolerance}")
    if job.workload == "cost-sweep":
        out.check_failures.extend(_check_cost(job, sim))


def _check_cost(job: Job, sim: SimulationResult) -> list:
    if job.protocol is ProtocolId.TRIT:
        # one trit every round; equal to log2 3 up to the rounding of the sum
        if sim.no_message_fraction != 0.0 or not math.isclose(
            sim.mean_bits, TRIT_BITS, rel_tol=1e-12
        ):
            return [f"trit mean bits {sim.mean_bits!r}, want log2 3"]
        return []
    want = n_of_p(job.p)
    if abs(sim.mean_bits - want) > COST_SIGMAS * sim.bits_stderr:
        return [f"mean bits {sim.mean_bits} vs N(p) {want} (stderr {sim.bits_stderr})"]
    return []


def traced_simulate(job: Job, state: State, tracer) -> SimulationResult:
    """``simulate`` rebuilt from its public steps, one span per step.

    Same streams and the same calls as ``protocols.run_batch``, so the counts
    equal those of an untraced ``simulate`` with the same seed.
    """
    pid, n, seed = job.protocol, job.rounds, job.seed
    check_applicable(pid, state)
    result = SimulationResult(pid, state, n, seed)
    for k, (x, y) in enumerate(job.pairs):
        start = time.perf_counter()
        with tracer.span("pair"):
            with tracer.span("sampling.draw_shared"):
                shared = draw_shared(pid, state, make_generator(seed, k, CH_SHARED), n)
            with tracer.span("sampling.draw_alice_private"):
                priv = draw_alice_private(pid, make_generator(seed, k, CH_ALICE), n)
            sampler = None
            if pid is ProtocolId.LOCAL_CONTENT and state.p < 1.0:
                with tracer.span("sampling.sampler_init"):
                    sampler = RhoTildeSampler(state, x, make_generator(seed, k, CH_SAMPLER))
            with tracer.span("protocols.alice_decide"):
                ares = alice_decide(pid, state, x, shared, priv, sampler)
            with tracer.span("protocols.bob_decide"):
                b = bob_decide(pid, y, shared, ares.msg, ares.payload)
            with tracer.span("protocols.aggregate"):
                batch = BatchResult(a=ares.a, b=b, msg=ares.msg, bits=ares.bits, lam=ares.lam)
                result.settings.append(_aggregate(pid, x, y, batch, False, False))
        tracer.count(f"pair_s.{pid.value}", time.perf_counter() - start)
        tracer.count(f"rounds.{pid.value}", n)
        tracer.count("inprocess.rounds", n)
        if sampler is not None:
            thinning = 2.0 * (1.0 - state.p) / _envelope_area(state.p)
            _count_acceptance(tracer, "thinning", sampler, thinning)
        if pid is ProtocolId.IMPROVED_ONE_BIT and state.p < 1.0:
            _count_envelope(tracer, state, seed, k, n, shared.lam1)
    return result


def _envelope_area(p: float) -> float:
    # N(p), with its limit 2 at p = 1/2, where n_of_p refuses the 0/0 form
    return 2.0 if p == 0.5 else n_of_p(p)


def _count_acceptance(tracer, key: str, sampler, analytic: float) -> None:
    # each proposal is accepted with probability `analytic`, so the expected
    # count and its binomial variance add up over samplers
    tracer.count(f"{key}.proposed", sampler.proposed)
    tracer.count(f"{key}.accepted", sampler.accepted)
    tracer.count(f"{key}.expected", sampler.proposed * analytic)
    tracer.count(f"{key}.variance", sampler.proposed * analytic * (1.0 - analytic))


def _count_envelope(tracer, state: State, seed: int, k: int, n: int, lam1: np.ndarray) -> None:
    # draw_shared keeps its envelope sampler to itself, so replay the same
    # stream on a twin generator: n shared-bit uniforms, then the sampler.
    # The replay is not tracing cost; its span is taken out of the overhead.
    with tracer.span("trace.envelope_replay"):
        rng = make_generator(seed, k, CH_SHARED)
        rng.random(n)
        sampler = RhoTildeMaxSampler(state, rng)
        replayed = sampler.draw(n)
    if not np.array_equal(replayed, lam1):
        tracer.count("envelope.replay_mismatch")
        return
    # analytic acceptance N(p) / (4 sqrt(p(1-p)))
    p = state.p
    analytic = _envelope_area(p) / (4.0 * math.sqrt(p * (1.0 - p)))
    _count_acceptance(tracer, "envelope", sampler, analytic)


def _run_networked_job(job: Job, tracer, out: Outcome) -> None:
    state = State(job.p)
    t0 = time.perf_counter()
    with tracer.span("wire.run_networked"):
        res, transcript = run_networked(job.protocol, state, job.pairs, job.rounds, job.seed)
    t1 = time.perf_counter()
    report, csv = _certify(res, tracer)
    with tracer.span("wire.to_binary"):
        blob = transcript.to_binary()
    with tracer.span("wire.from_binary"):
        back = Transcript.from_binary(blob)
    with tracer.span("wire.audit"):
        before = audit_transcript(transcript)
        after = audit_transcript(back)
    t2 = time.perf_counter()
    out.rounds, out.sim_s, out.certify_s = res.total_rounds, t1 - t0, t2 - t0
    out.counts = [s.counts.tolist() for s in res.settings]
    out.settings_csv = csv

    if tracer.enabled:
        tracer.count("wire.rounds", res.total_rounds)
        tracer.count("wire.frames", len(transcript.records))
        tracer.count("wire.bytes", sum(len(r.frame.encode()) for r in transcript.records))
        tracer.count("wire.transcript_bytes", len(blob))

    if not report.passed:
        out.check_failures.append(f"max TVD {report.max_tvd} above {report.tolerance}")
    if not before.passed:
        out.check_failures.append(f"audit findings {before.findings[:3]}")
    if not after.passed:
        out.check_failures.append(f"audit after round trip {after.findings[:3]}")
    ref = simulate(job.protocol, state, job.pairs, job.rounds, job.seed, keep_outcomes=True)
    if len(res.settings) != len(ref.settings):
        out.check_failures.append(f"{len(res.settings)} networked pairs, want {len(ref.settings)}")
    for k, (got, want) in enumerate(zip(res.settings, ref.settings)):
        for seq in ("a_seq", "b_seq", "msg_seq", "bits_seq"):
            if not np.array_equal(getattr(got, seq, None), getattr(want, seq, None)):
                out.check_failures.append(f"pair {k}: networked {seq} differs from simulate")


def golden_hashes(seed: int) -> dict:
    """sha256 of each grid-certify job's settings.csv at the golden size."""
    hashes = {}
    for job in build_jobs("grid-certify", seed, scale=GOLDEN_ROUNDS / GRID_ROUNDS):
        out = run_job(job, NullTracer())
        if out.settings_csv is not None:
            hashes[job.name] = hashlib.sha256(out.settings_csv.encode()).hexdigest()
    return hashes
