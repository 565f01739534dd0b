"""Attack injection and measurement: broadcast poisoning, channel
interception with gradient inference, and gradient-matching input
reconstruction.

Everything here treats the training engines as black boxes; attacks hook
in through the broadcast seam, where poisoning shifts the round's own copy
in place, or read intercepted weight snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .consensus import ConvergenceMonitor, run_training
from .numerics import MlpModel, NetworkTasks, NoiseModel, QuadraticTasks
from .secagg import FixedPointCodec, Transcript, party_placement, secure_aggregate
from .topology import make_dms_schedule

__all__ = [
    "LeakageReport",
    "PoisonOutcome",
    "PoisonPolicy",
    "ReconstructionResult",
    "dlg_compare_topologies",
    "dlg_reconstruct",
    "run_poisoning_experiment",
    "secure_leakage_probe",
]


@dataclass(frozen=True)
class PoisonPolicy:
    """Which agents lie on the wire and by how much.

    ``constant`` mode adds ``epsilon`` to every coordinate; ``scaled``
    mode adds ``epsilon * ||w|| / sqrt(dim)``, a perturbation whose size
    tracks the weight magnitude.
    """

    malicious_ids: frozenset[int]
    epsilon: float = 0.2
    mode: str = "constant"

    def __post_init__(self) -> None:
        object.__setattr__(self, "malicious_ids", frozenset(self.malicious_ids))
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.mode not in ("constant", "scaled"):
            raise ValueError(f"unknown poison mode {self.mode!r}")

    def hook(self):
        """Broadcast hook for the training engines: shifts the malicious rows
        below n of the (n, d) broadcast it is handed in place and returns
        that array. Negative ids name no agent; a zero epsilon shifts nothing."""
        ids = sorted(i for i in self.malicious_ids if i >= 0) if self.epsilon else []
        eps, scaled = self.epsilon, self.mode == "scaled"

        def apply(broadcast: np.ndarray) -> np.ndarray:
            n = len(broadcast)
            for i in ids:
                if i < n:
                    row = broadcast[i]
                    row += eps * float(np.linalg.norm(row)) / np.sqrt(row.size) if scaled else eps
            return broadcast

        return apply


@dataclass
class ReconstructionResult:
    """Best iterate of a gradient-matching attack."""

    x: np.ndarray
    residual: float


def dlg_reconstruct(
    model,
    theta: np.ndarray,
    observed_grad: np.ndarray,
    *,
    iters: int = 500,
    rng: np.random.Generator,
    restarts: int = 1,
) -> ReconstructionResult:
    """Reconstruct a single training sample from its observed gradient.

    Minimizes the squared mismatch between the model gradient at a dummy
    sample and ``observed_grad`` by finite-difference descent on the dummy
    input and target (central differences of relative width 1e-4), with a
    backtracking line search of up to 40 halvings from a first step of
    0.1, so the residual never increases. Each iteration takes one stacked
    call for every central difference and one for every candidate step,
    keeping the first (largest) that improves: the iterates of one call per
    difference and per candidate. ``model`` needs only a
    ``loss_and_gradient(theta, x, y)`` that stacks leading batch axes. Each
    of the ``restarts`` attempts starts from a fresh random dummy sample,
    and the attack keeps the best residual.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    theta = np.asarray(theta, dtype=float)
    observed = np.asarray(observed_grad, dtype=float)
    in_dim, out_dim = model.in_dim, model.out_dim

    def residuals(z: np.ndarray) -> np.ndarray:
        """Squared gradient mismatch at each dummy sample row of ``z`` (input, then target)."""
        _, g = model.loss_and_gradient(theta, z[:, None, :in_dim], z[:, None, in_dim:])
        d = g - observed
        return np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]

    best: ReconstructionResult | None = None
    for _ in range(restarts):
        z = np.concatenate([rng.uniform(0.0, 1.0, in_dim), rng.uniform(-1.0, 1.0, out_dim)])
        residual = float(residuals(z[None])[0])
        if not np.isfinite(residual):
            raise ValueError("attack residual non-finite at initialization")
        trial_step = 0.1

        for _ in range(iters):
            if residual == 0.0:
                break
            h = 1e-4 * np.maximum(1.0, np.abs(z))
            r = residuals(np.concatenate([z + h * np.eye(z.size), z - h * np.eye(z.size)]))
            grad = (r[: z.size] - r[z.size :]) / (2 * h)
            if float(np.linalg.norm(grad)) < 1e-14:
                break
            # The 40 trial steps, halved in turn as a one-at-a-time search halves them.
            steps = np.cumprod(np.r_[trial_step, np.full(39, 0.5)])
            cands = z - steps[:, None] * grad
            r = residuals(cands)
            k = int(np.argmax(r < residual))  # the first improving step, if any
            if not r[k] < residual:
                break
            z, residual, trial_step = cands[k], float(r[k]), min(steps[k] * 2.0, 1e3)

        if best is None or residual < best.residual:
            best = ReconstructionResult(x=z[:in_dim].copy(), residual=residual)
    return best


def secure_leakage_probe(transcript: Transcript, encoded_vectors: Sequence[Sequence[int]]) -> bool:
    """True when no individual encoded coordinate appears in any payload.

    Shares and share-sums are uniform field elements, so a hit against a
    contributor's actual encoding would mean the protocol leaked it. A
    transcript that kept no payloads raises ``ValueError``.
    """
    if not transcript.record_payloads:
        raise ValueError("the transcript kept no payloads to probe")
    private = {int(v) for vec in encoded_vectors for v in vec}
    payloads = chain.from_iterable(entry.payload for entry in transcript.entries)
    return private.isdisjoint(int(value) for value in payloads)


@dataclass
class LeakageReport:
    """One seed's interception-plus-reconstruction comparison."""

    fedavg_input_mse: float
    dms_input_mse: float
    fedavg_residual: float
    dms_residual: float
    aggregate_input_mse: float
    transcript_clean: bool
    inferred_mismatch: float


def dlg_compare_topologies(seed: int, *, iters: int = 500, restarts: int = 3) -> LeakageReport:
    """Run the interception pipeline against both threat models, with six
    agents, a 2-4-1 network and learning rate 0.1.

    Server arm: the attacker knows the shared initial weights and sees one
    clean local update, so the inferred gradient is exact. Switching arm:
    per-agent unknown inits, and the victim's two observed broadcasts span
    a consensus mix, so the differenced "gradient" is contaminated. Both
    arms attack the same victim sample with the same attack budget.
    """
    ss = np.random.SeedSequence(seed)
    data_rng, init_rng, attack_rng, mix_rng, secagg_rng = (
        np.random.default_rng(s) for s in ss.spawn(5)
    )

    agent_count, gamma = 6, 0.1
    model = MlpModel(2, 4, 1)
    samples_x = data_rng.uniform(0.0, 1.0, (agent_count, 2))
    samples_y = data_rng.uniform(0.0, 1.0, (agent_count, 1))
    victim = 0
    true_x = samples_x[victim]

    def attack(theta: np.ndarray, grad: np.ndarray) -> tuple[float, float]:
        """Every arm's attack, one budget and generator: (input MSE, residual)."""
        rec = dlg_reconstruct(model, theta, grad, iters=iters, rng=attack_rng, restarts=restarts)
        dx = rec.x - true_x
        return float(np.mean(dx * dx)), rec.residual

    # Server arm: shared init; the gradient is inferred as the difference
    # of the two intercepted weights across one local step, over gamma.
    theta0 = model.init_params(init_rng)
    _, grads = model.loss_and_gradient(theta0, samples_x[:, None], samples_y[:, None])
    true_grad = grads[victim]
    phi = theta0 - gamma * true_grad
    fedavg_mse, fedavg_residual = attack(theta0, (theta0 - phi) / gamma)

    # Switching arm: per-agent inits the attacker never sees; broadcasts
    # observed across a mixing step.
    tasks = NetworkTasks(model, samples_x[:, None], samples_y[:, None])
    inits = np.array([model.init_params(init_rng) for _ in range(agent_count)])
    schedule = make_dms_schedule(
        agent_count, subset_size=max(3, agent_count - 1), substructure_count=4, rng=mix_rng
    )
    observed: list[np.ndarray] = []

    def on_round(k, thetas, phis, row, losses):
        observed.append(phis[victim].copy())

    run_training(
        tasks, schedule, inits=inits, gamma=gamma, strategy="dms", rounds=2, on_round=on_round
    )
    dms_inferred = (observed[0] - observed[1]) / gamma
    mismatch = float(np.linalg.norm(dms_inferred - true_grad))
    # observed[0]: the attacker's best weight guess
    dms_mse, dms_residual = attack(observed[0], dms_inferred)

    # Aggregate arm: the attacker sees only the securely summed gradients.
    codec = FixedPointCodec()
    session = party_placement(agent_count=agent_count, prime=codec.prime)[0]
    transcript = Transcript()
    total = secure_aggregate(
        grads, session, codec, secagg_rng, transcript=transcript, round_index=0
    )
    clean = secure_leakage_probe(transcript, [codec.encode_vector(g) for g in grads])
    agg_mse, _ = attack(theta0, total / agent_count)

    return LeakageReport(
        fedavg_input_mse=fedavg_mse,
        dms_input_mse=dms_mse,
        fedavg_residual=fedavg_residual,
        dms_residual=dms_residual,
        aggregate_input_mse=agg_mse,
        transcript_clean=clean,
        inferred_mismatch=mismatch,
    )


@dataclass
class PoisonOutcome:
    """Inflation ratios (poisoned tail error / clean tail error) per seed,
    and whether any arm's run diverged."""

    seeds: list[int]
    dms_inflation: np.ndarray
    fedavg_inflation: np.ndarray
    diverged: bool = False

    @property
    def dms_median(self) -> float:
        return float(np.median(self.dms_inflation))

    @property
    def fedavg_median(self) -> float:
        return float(np.median(self.fedavg_inflation))


def run_poisoning_experiment(
    seeds: Sequence[int],
    *,
    agent_count: int = 30,
    malicious_count: int = 3,
    epsilon: float = 0.2,
    mode: str = "constant",
    dim: int = 2,
    gamma: float = 0.02,
    rounds: int = 1000,
    subset_size: int = 21,
    substructure_count: int = 8,
    noise_bound: float = 0.1,
    tail_rounds: int = 100,
) -> PoisonOutcome:
    """Error inflation of the switching strategy vs the server baseline
    under broadcast poisoning.

    Each seed runs four arms: dms clean and poisoned, then fedavg clean and
    poisoned, each pair as one run of a stack whose hook poisons the second
    replica; a pair whose run diverges runs again arm by arm, so each arm
    stops where it diverges. An arm's error is its worst-agent squared error
    averaged over the last ``tail_rounds`` rows (all rows when fewer).
    Malicious ids are the first ``malicious_count`` agents. Each seed's arms
    draw from ``SeedSequence(seed).spawn(3)`` (init, schedule, noise) and
    every arm rebuilds its generators from those children, so clean and
    poisoned arms share every stream and an empty malicious set gives
    inflation exactly 1. The unit-curvature task set, noise model and hook
    are built once per call. A small gradient noise keeps the clean tail
    error away from round-off, which makes the ratio well conditioned. An
    arm whose run diverges stops early, and the outcome's ``diverged`` flags
    it.
    """
    if not 0 <= malicious_count <= agent_count:
        raise ValueError(f"malicious_count must be in [0, {agent_count}], got {malicious_count}")
    if tail_rounds < 1:
        raise ValueError(f"tail_rounds must be at least 1, got {tail_rounds}")
    hook = PoisonPolicy(frozenset(range(malicious_count)), epsilon=epsilon, mode=mode).hook()
    tasks = QuadraticTasks.from_optima(np.ones((agent_count, dim)), np.zeros((agent_count, dim)))
    noise = NoiseModel(noise_bound)

    def poison_last(stack: np.ndarray) -> np.ndarray:
        hook(stack[-1])
        return stack

    def tails(strategy: str, children, arms: int, broadcast_hook=poison_last):
        """One run of a stack of ``arms`` replicas: its divergence flag and
        each arm's tail mean of the worst-agent error."""
        init_seed, schedule_seed, noise_seed = children
        schedule = None
        if strategy != "fedavg":
            schedule = make_dms_schedule(
                agent_count,
                subset_size=subset_size,
                substructure_count=substructure_count,
                rng=np.random.default_rng(schedule_seed),
            )
        rows = 1 if schedule is None else agent_count  # fedavg agents share one init
        draws = np.random.default_rng(init_seed).uniform(-0.5, 0.5, (rows, dim))
        inits = np.stack([np.repeat(draws, agent_count // rows, axis=0)] * arms)
        monitor = ConvergenceMonitor(np.zeros(dim))
        run = run_training(
            tasks,
            schedule,
            inits=inits,
            gamma=gamma,
            strategy=strategy,
            rounds=rounds,
            noise=noise,
            noise_rng=np.random.default_rng(noise_seed),
            broadcast_hook=broadcast_hook,
            monitor=monitor,
        )
        # A mean over each 1-d column sums in the order of the arm's own run.
        series = monitor.worst_mse[-tail_rounds:]
        return run.diverged, [float(series[:, j].mean()) for j in range(arms)]

    errors, diverged = [], False
    for seed in seeds:
        children = np.random.SeedSequence(seed).spawn(3)
        for strategy in ("dms", "fedavg"):
            pair_diverged, pair = tails(strategy, children, 2)
            if pair_diverged:  # the stack stopped at the first arm's divergence
                pair = [tails(strategy, children, 1, h)[1][0] for h in (None, poison_last)]
            errors.append(pair)
            diverged |= pair_diverged
    dms_clean, dms_bad, fed_clean, fed_bad = np.reshape(errors, (-1, 4)).T  # one row per seed
    return PoisonOutcome(list(seeds), dms_bad / dms_clean, fed_bad / fed_clean, diverged=diverged)
