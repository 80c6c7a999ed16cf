"""The four benchmark workloads.

Each workload is a closed loop with one client in one process. ``setup``
builds every input from the workload seed (fixtures, generated machines, the
in-process mock server) and warms every op kind once; ``cycle`` runs a fixed
mix of ops and hands each op's latency and check result to a ``Recorder``.
The run stops only at whole cycles, so every run has the same mix of op kinds
and the latency percentiles do not jump between kinds. The mixes are chosen
so that the median and the 90th percentile fall inside one op kind, not on a
boundary between two.

Library calls go through module attributes (``metrics.visible_marginal``, not
an imported name) so that the traced run sees them.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import replace

import numpy as np

from isingbm import datasets, metrics, mock_server, model, samplers, training

MAX_REPORTED_ERRORS = 5


class Recorder:
    """Latencies of passed ops, attempted and failed counts, busy time and
    the sampler-call counters of the training traces."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.cycle_medians: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.counters: Counter = Counter()
        self.errors: list[str] = []

    def call(self, n_ops: int, fn, judge) -> None:
        """Time one library call that performs ``n_ops`` ops.

        ``judge(result, seconds)`` returns one ``(latency_s, problem)`` pair
        per op, ``problem`` being None when the op's output passed its check.
        An exception from the call or the judge fails all of its ops; it is
        recorded and the run goes on.
        """
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # an op that raises is a failed op, not the end of the run
            self.busy += time.perf_counter() - start
            self._fail(n_ops, traceback.format_exc(limit=3))
            return
        seconds = time.perf_counter() - start
        self.busy += seconds
        try:
            outcomes = judge(result, seconds)
        except Exception:
            self._fail(n_ops, traceback.format_exc(limit=3))
            return
        for latency, problem in outcomes[:n_ops]:
            self.attempted += 1
            if problem is None:
                self.latencies.append(latency)
            else:
                self.failed += 1
                self._note(problem)
        if len(outcomes) < n_ops:
            self._fail(n_ops - len(outcomes), f"{n_ops - len(outcomes)} ops missing from the result")

    def _fail(self, n: int, message: str) -> None:
        self.attempted += n
        self.failed += n
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)
            print(f"op failed: {message}", file=sys.stderr)


def _first_problem(*checks: tuple[bool, str]) -> str | None:
    return next((msg for ok, msg in checks if not ok), None)


def _single(checker):
    """Judge for a call that is one op, timed by the recorder."""
    return lambda result, seconds: [(seconds, checker(result))]


class Workload:
    name = ""
    trace_cycles = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    def cycle(self, rec: Recorder) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def next_seed(self) -> int:
        return int(self.rng.integers(1 << 31))


# -- sweep --------------------------------------------------------------------


def _sweep_point(bm, ds, q, beta, conds):
    """One beta point of the ``sweep-beta`` computation."""
    marginal = metrics.visible_marginal(bm, beta)
    d1, d2 = metrics.dkl_beta_derivatives(bm, beta, ds)
    kl = metrics.kl_divergence(q, marginal)
    p_rows = [marginal.prob(ds.row(d)) for d in range(ds.num_rows)]
    cond = []
    if conds:
        cond = [
            metrics.conditional_probability(bm, beta, ds.input_part(d)).prob(ds.output_part(d))
            for d in range(ds.num_rows)
        ]
    return marginal, kl, d1, d2, p_rows, cond


class Sweep(Workload):
    """Beta points on the two largest fixtures.

    two_phase_trained (18 nodes, 11 rows, no split) and adder_function (17
    nodes, 16 rows, split (4, 3)). Per cycle: the adder at beta 5 (criterion
    7) and at a seeded beta in [0.5, 10], and two_phase at a seeded beta in
    [0.5, 6]. The adder points are the faster kind, so the median op is an
    adder point and the 90th percentile a two_phase point.
    """

    name = "sweep"
    trace_cycles = 30

    def setup(self) -> None:
        super().setup()
        self.two_phase = datasets.load_fixture("two_phase_trained")
        self.two_phase_ds = datasets.two_phase(10)
        self.two_phase_q = metrics.dataset_distribution(self.two_phase_ds)
        self.adder = datasets.load_fixture("adder_function")
        self.adder_ds = datasets.adder2()
        self.adder_q = metrics.dataset_distribution(self.adder_ds)
        warm = Recorder()
        self._two_phase_op(warm, 2.0)
        self._adder_op(warm, 5.0)

    def cycle(self, rec: Recorder) -> None:
        self._adder_op(rec, 5.0)
        self._two_phase_op(rec, float(self.rng.uniform(0.5, 6.0)))
        self._adder_op(rec, float(self.rng.uniform(0.5, 10.0)))

    def _two_phase_op(self, rec: Recorder, beta: float) -> None:
        ds, q = self.two_phase_ds, self.two_phase_q

        def check(result):
            _, kl, d1, d2, p_rows, _ = result
            expected_kl = sum(float(w) * math.log(float(w) / p) for w, p in zip(q.probs, p_rows) if p > 0)
            return _first_problem(
                (all(0.0 <= p <= 1.0 for p in p_rows) and sum(p_rows) <= 1.0 + 1e-9, "row probabilities out of range"),
                (math.isfinite(kl) and abs(kl - max(expected_kl, 0.0)) <= 1e-9 * max(1.0, kl),
                 f"kl {kl} disagrees with the row probabilities ({expected_kl})"),
                (math.isfinite(d1) and math.isfinite(d2), "beta derivatives not finite"),
                # Criterion 5 per point: the divergence minimum lies in [1.5, 3].
                (not (beta < 1.5 and d1 >= 0.0) and not (beta > 3.0 and d1 <= 0.0),
                 f"dkl slope {d1} at beta {beta} puts the minimum outside [1.5, 3]"),
            )

        rec.call(1, lambda: _sweep_point(self.two_phase, ds, q, beta, False), _single(check))

    def _adder_op(self, rec: Recorder, beta: float) -> None:
        bm, ds, q = self.adder, self.adder_ds, self.adder_q
        outputs = list(itertools.product((0, 1), repeat=bm.num_visible_output))

        def check(result):
            marginal, kl, d1, d2, p_rows, cond = result
            # Checks read attributes only, so the traced run records no spans for them.
            joint = dict(zip(marginal.support, marginal.probs))
            worst = 0.0
            for d in range(ds.num_rows):
                row = tuple(int(v) for v in ds.rows[d])
                inp = row[: bm.num_visible_input]
                total = sum(joint.get(inp + out, 0.0) for out in outputs)
                worst = max(worst, abs(cond[d] - joint.get(row, 0.0) / total))
            checks = [
                (math.isfinite(kl) and kl >= 0.0, f"kl {kl} not a divergence"),
                (math.isfinite(d1) and math.isfinite(d2), "beta derivatives not finite"),
                (len(cond) == ds.num_rows and worst <= 1e-9,
                 f"conditionals differ from the marginal ratio by {worst}"),
            ]
            if beta == 5.0:
                checks.append((0.15 <= min(cond) <= 0.45, f"criterion 7: min conditional {min(cond)} at beta 5"))
            return _first_problem(*checks)

        rec.call(1, lambda: _sweep_point(bm, ds, q, beta, True), _single(check))


# -- training -----------------------------------------------------------------


def _bipartite(m_v: int, n_h: int) -> training.Architecture:
    return training.Architecture(m_v, 0, n_h, pairs=tuple((v, m_v + h) for v in range(m_v) for h in range(n_h)))


def _train_judge(cfg, calls_ok):
    """Judge of a training call: one op per step, its latency the difference of
    consecutive ``seconds`` in the trace, the initial loss charged to step 1."""

    def judge(result, _seconds):
        _, trace = result
        records = trace.records
        outcomes = []
        for prev, rec in zip(records, records[1:]):
            evaluated = rec.step % cfg.loss_every == 0 or rec.step == cfg.max_steps
            problem = _first_problem(
                (rec.step == prev.step + 1, f"step {rec.step} follows {prev.step}"),
                (prev.step != 0 or (math.isfinite(prev.loss) and prev.loss >= 0), f"initial loss {prev.loss}"),
                (not evaluated or (math.isfinite(rec.loss) and rec.loss >= 0), f"loss {rec.loss} at step {rec.step}"),
                (calls_ok(rec.sampler_calls_full, rec.sampler_calls_clamped),
                 f"sampler calls ({rec.sampler_calls_full}, {rec.sampler_calls_clamped}) at step {rec.step}"),
            )
            outcomes.append((rec.seconds - prev.seconds, problem))
        return outcomes

    return judge


def _run_job(rec: Recorder, train, ds, arch, cfg, calls_ok, reuse_rows: int = 0) -> None:
    """One training call; its steps are the ops. ``reuse_rows`` > 0 marks a
    sampled ``grad_dkl`` job under the ``auto`` policy: each step may reuse the
    full draw for each of its rows, and each clamped draw is a row not reused."""

    judge = _train_judge(cfg, calls_ok)

    def count_and_judge(result, seconds):
        steps = result[1].records[1:]
        clamped = sum(r.sampler_calls_clamped for r in steps)
        rec.counters["sampler_calls_full"] += sum(r.sampler_calls_full for r in steps)
        rec.counters["sampler_calls_clamped"] += clamped
        if reuse_rows:
            rec.counters["reuse_base"] += reuse_rows * len(steps)
            rec.counters["reuse_clamped"] += clamped
        return judge(result, seconds)

    rec.call(cfg.max_steps, lambda: train(ds, arch, cfg), count_and_judge)


def _no_sampler_calls(full: int, clamped: int) -> bool:
    return full == 0 and clamped == 0


class ExactTrain(Workload):
    """Exact-gradient training of the machines ``reproduce`` trains.

    Per cycle: AND 3v2h bipartite at beta 15 (three seeds), OR 3v{2,5,10}h
    complete at beta 3, and an AND-gate 2i1o1h function approximator (NCLL)
    at beta 3. ``delta_theta_min`` is 0, so every job runs its full steps.
    """

    name = "exact_train"
    trace_cycles = 10

    def setup(self) -> None:
        super().setup()
        self.steps = 10 if self.smoke else 50
        self.and_ds = datasets.from_rows(datasets.logic_gate("AND").rows)
        self.or_ds = datasets.from_rows(datasets.logic_gate("OR").rows)
        self.and_fn = datasets.logic_gate("AND")
        self._jobs(Recorder(), warm=True)

    def _cfg(self, beta: float) -> training.TrainingConfig:
        return training.TrainingConfig(
            eta=0.1, weight_decay=1e-5, momentum=0.6, max_steps=self.steps, delta_theta_min=0.0,
            sampler=samplers.SamplerConfig(beta=beta), seed=self.next_seed(), loss_every=self.steps // 2,
        )

    def _jobs(self, rec: Recorder, warm: bool = False) -> None:
        for _ in range(1 if warm else 3):
            _run_job(rec, training.train_distribution, self.and_ds, _bipartite(3, 2), self._cfg(15.0), _no_sampler_calls)
        for n_h in (2, 5, 10):
            _run_job(rec, training.train_distribution, self.or_ds, training.Architecture(3, 0, n_h),
                     self._cfg(3.0), _no_sampler_calls)
        _run_job(rec, training.train_function_approximator, self.and_fn, training.Architecture(2, 1, 1),
                 self._cfg(3.0), _no_sampler_calls)

    def cycle(self, rec: Recorder) -> None:
        self._jobs(rec)


class SampledTrain(Workload):
    """Sampled-gradient training: one full draw plus clamped draws per row.

    Per cycle: AND 3v2h bipartite with the Gibbs backend on short chains under
    the ``auto`` and the ``always`` clamped-resample policies, and an AND-gate
    2i1o1h function approximator drawing from the in-process mock server.
    The step counts put the median and the 90th percentile inside the
    ``always`` steps. The remote steps, the slowest kind and the one whose
    latency drifts most on a shared host, lie above the 94th percentile and
    take about an eighth of the busy time, so they move ``ops_per_s``.
    """

    name = "sampled_train"
    trace_cycles = 5

    def setup(self) -> None:
        super().setup()
        self.and_ds = datasets.from_rows(datasets.logic_gate("AND").rows)
        self.and_fn = datasets.logic_gate("AND")
        self.server = mock_server.MockAnnealerServer(beta=3.0, seed=self.seed).start()
        self.steps = {"auto": 2, "always": 2, "remote": 2}
        self._jobs(Recorder())
        self.steps = {"auto": 5, "always": 5, "remote": 5} if self.smoke else {"auto": 10, "always": 60, "remote": 4}

    def _cfg(self, sampler, steps: int, policy: str = "auto") -> training.TrainingConfig:
        seed = self.next_seed()
        return training.TrainingConfig(
            eta=0.1, weight_decay=1e-5, momentum=0.6, max_steps=steps, delta_theta_min=0.0,
            gradient_mode=training.GradientMode.SAMPLED, sampler=replace(sampler, seed=seed),
            seed=seed, loss_every=max(steps // 3, 1), clamped_resample=policy,
        )

    def _jobs(self, rec: Recorder) -> None:
        rows = self.and_ds.num_rows
        gibbs = samplers.SamplerConfig(beta=3.0, num_reads=200, burn_in=20, thinning=2, num_chains=10,
                                       backend=samplers.Backend.GIBBS)
        remote = samplers.SamplerConfig(beta=3.0, num_reads=200, backend=samplers.Backend.REMOTE,
                                        endpoint=self.server.url)
        steps = self.steps
        _run_job(rec, training.train_distribution, self.and_ds, _bipartite(3, 2),
                 self._cfg(gibbs, steps["auto"], "auto"),
                 lambda full, clamped: full == 1 and 0 <= clamped <= rows, reuse_rows=rows)
        _run_job(rec, training.train_distribution, self.and_ds, _bipartite(3, 2),
                 self._cfg(gibbs, steps["always"], "always"),
                 lambda full, clamped: full == 1 and clamped == rows)
        _run_job(rec, training.train_function_approximator, self.and_fn, training.Architecture(2, 1, 1),
                 self._cfg(remote, steps["remote"]),
                 lambda full, clamped: full == 0 and clamped == 2 * self.and_fn.num_rows)

    def cycle(self, rec: Recorder) -> None:
        self._jobs(rec)

    def close(self) -> None:
        self.server.stop()


# -- fit ----------------------------------------------------------------------

MOCK_BETA = 3.0
MOCK_DRIFT = 0.05


class Fit(Workload):
    """Temperature fits as in ``reproduce`` step 6.

    Per cycle: Gibbs draws at beta 3 (50 chains, 5000 reads) on seeded
    random complete machines of sizes 4, 5, 6, 7, 8 and 8, and five draws of
    20000 reads from the in-process mock server with drift 0.05 on seeded
    sizes in 4..8. Each draw is followed by ``fit_beta``; one op is one (draw,
    fit) pair. Gibbs cost grows with size and mock draws are cheap, so the
    median op is a 4-node Gibbs fit and the 90th percentile an 8-node one.
    """

    name = "fit"
    trace_cycles = 6
    gibbs_target = 3.0
    tolerance = 0.10

    def setup(self) -> None:
        super().setup()
        self.server = mock_server.MockAnnealerServer(beta=MOCK_BETA, beta_drift=MOCK_DRIFT, seed=self.seed).start()
        warm = Recorder()
        self._gibbs_op(warm, 4)
        self._mock_op(warm, 4)

    def cycle(self, rec: Recorder) -> None:
        for size in self.rng.integers(4, 9, size=5):
            self._mock_op(rec, int(size))
        for size in (4, 5, 6, 7, 8, 8):
            self._gibbs_op(rec, size)

    def _machine(self, size: int):
        return model.random_machine(size, 0, 0, np.random.default_rng(self.next_seed()))

    @staticmethod
    def _draw_and_fit(bm, cfg):
        ss = samplers.draw_samples(bm, cfg)
        beta_star, _ = metrics.fit_beta(ss, bm)
        return ss, beta_star

    def _judge(self, target: float, reads: int):
        def check(result):
            ss, beta_star = result
            return _first_problem(
                (int(ss.counts.sum()) == reads, f"{int(ss.counts.sum())} reads, expected {reads}"),
                (abs(beta_star - target) <= self.tolerance * target, f"fitted beta {beta_star}, expected {target}"),
            )

        return _single(check)

    def _gibbs_op(self, rec: Recorder, size: int) -> None:
        cfg = samplers.SamplerConfig(beta=3.0, num_reads=5000, burn_in=500, thinning=10, seed=self.next_seed(),
                                     backend=samplers.Backend.GIBBS, num_chains=50)
        bm = self._machine(size)
        rec.call(1, lambda: self._draw_and_fit(bm, cfg), self._judge(self.gibbs_target, cfg.num_reads))

    def _mock_op(self, rec: Recorder, size: int) -> None:
        cfg = samplers.SamplerConfig(beta=3.0, num_reads=20000, seed=self.next_seed(),
                                     backend=samplers.Backend.REMOTE, endpoint=self.server.url)
        target = MOCK_BETA / (1.0 + MOCK_DRIFT * size)
        bm = self._machine(size)
        rec.call(1, lambda: self._draw_and_fit(bm, cfg), self._judge(target, cfg.num_reads))

    def close(self) -> None:
        self.server.stop()


WORKLOADS = {w.name: w for w in (Sweep, ExactTrain, Fit, SampledTrain)}
