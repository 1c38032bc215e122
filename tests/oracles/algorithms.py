"""Pure-Python reference engines: the differential oracles for the
batched queued-routing simulator and the batched Benes router.

* :func:`simulate_butterfly_queued_legacy` — the original triple loop
  over stages, rows and FIFOs; with the same seed it must give the
  offered / delivered / drained counts and latency totals of
  :func:`repro.algorithms.queued_routing.simulate_butterfly_queued`.
* :func:`route_permutation_legacy` / :func:`apply_settings_legacy` — the
  original recursive looping algorithm and switch simulator; the batched
  engine's settings must match them bit for bit, column by column.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.benes_routing import (
    BenesSettings,
    _validate_perm,
    num_switch_stages,
)
from repro.algorithms.queued_routing import (
    SimResult,
    _default_drain,
    _validate,
)

__all__ = [
    "apply_settings_legacy",
    "route_permutation_legacy",
    "simulate_butterfly_queued_legacy",
]


def simulate_butterfly_queued_legacy(
    n: int,
    rate_per_input: float,
    cycles: int = 2000,
    warmup: int = 200,
    seed: int = 0,
    drain: Optional[int] = None,
) -> SimResult:
    """Reference pure-Python simulator (the pre-vectorization triple
    loop), kept for differential testing: same seed gives identical
    offered / delivered / drained counts and latency totals as
    :func:`simulate_butterfly_queued`.  Its ``max_queue`` is still the
    historical coarse sample (every 64 cycles), a lower bound on the
    engine's exact peak.
    """
    _validate(n, rate_per_input, cycles)
    if drain is None:
        drain = _default_drain(n)
    R = 1 << n
    rng = np.random.default_rng(seed)
    # queues[s][r][o]: packets at node (r, s) waiting on output o
    # (0 = straight, 1 = cross); a packet is (dest_row, inject_cycle)
    queues: List[List[Tuple[Deque, Deque]]] = [
        [(deque(), deque()) for _ in range(R)] for _ in range(n)
    ]
    offered = delivered = drained = 0
    latency_total = 0
    max_queue = 0
    drain_cycles = 0
    in_flight = 0

    inject = rng.random((cycles, R)) < rate_per_input
    dests = rng.integers(0, R, size=(cycles, R))

    for t in range(cycles + drain):
        if t >= cycles:
            if in_flight == 0:
                break
            drain_cycles += 1
        # advance stages back-to-front so a packet moves one hop per cycle
        for s in range(n - 1, -1, -1):
            bit = 1 << s
            for r in range(R):
                straight, cross = queues[s][r]
                # straight link (r,s)->(r,s+1)
                if straight:
                    pkt = straight.popleft()
                    if s + 1 == n:
                        in_flight -= 1
                        if pkt[1] >= warmup:
                            if t < cycles:
                                delivered += 1
                            else:
                                drained += 1
                            latency_total += t + 1 - pkt[1]
                    else:
                        _enqueue(queues, pkt, r, s + 1, n)
                # cross link (r,s)->(r^bit,s+1)
                if cross:
                    pkt = cross.popleft()
                    if s + 1 == n:
                        in_flight -= 1
                        if pkt[1] >= warmup:
                            if t < cycles:
                                delivered += 1
                            else:
                                drained += 1
                            latency_total += t + 1 - pkt[1]
                    else:
                        _enqueue(queues, pkt, r ^ bit, s + 1, n)
        # injections at stage 0
        if t < cycles:
            for r in np.nonzero(inject[t])[0]:
                pkt = (int(dests[t, r]), t)
                if t >= warmup:
                    offered += 1
                in_flight += 1
                _enqueue(queues, pkt, int(r), 0, n)
        if t % 64 == 0:
            backlog = max(
                len(q)
                for stage in queues
                for node in stage
                for q in node
            )
            max_queue = max(max_queue, backlog)

    completed = delivered + drained
    avg_latency = latency_total / completed if completed else float("inf")
    return SimResult(
        n=n,
        rate_per_input=rate_per_input,
        cycles=cycles,
        offered=offered,
        delivered=delivered,
        avg_latency=avg_latency,
        max_queue=max_queue,
        warmup=warmup,
        drained=drained,
        drain_cycles=drain_cycles,
        in_flight=in_flight,
    )


def _enqueue(queues, pkt, r: int, s: int, n: int) -> None:
    dest = pkt[0]
    out = 1 if ((r ^ dest) >> s) & 1 else 0
    queues[s][r][out].append(pkt)


def route_permutation_legacy(perm: Sequence[int]) -> BenesSettings:
    """The original recursive looping algorithm — the oracle the batched
    engine is checked against, bit for bit."""
    n = _validate_perm(perm)
    N = 1 << n
    settings = BenesSettings(
        n=n, stages=[[False] * (N // 2) for _ in range(num_switch_stages(n))]
    )
    _route_legacy(list(perm), stage0=0, settings=settings, offset=0)
    return settings


def _two_color(perm: List[int]) -> List[int]:
    """Assign each input a sub-network (0 = top, 1 = bottom) such that
    switch partners (inputs 2j, 2j+1 and outputs 2j, 2j+1) get different
    colors and ``color(output) = color(input)`` along ``perm``."""
    N = len(perm)
    inv = [0] * N
    for i, p in enumerate(perm):
        inv[p] = i
    color: List[Optional[int]] = [None] * N
    for start in range(N):
        if color[start] is not None:
            continue
        i, c = start, 0
        while True:
            color[i] = c
            partner_out = perm[i] ^ 1  # shares the output switch
            j = inv[partner_out]  # must take the other network
            color[j] = 1 - c
            nxt = j ^ 1  # shares j's input switch
            if color[nxt] is not None:
                break  # chain closed into a cycle
            i, c = nxt, c  # nxt must take the opposite of j = same as c
    return color  # type: ignore[return-value]


def _route_legacy(
    perm: List[int], stage0: int, settings: BenesSettings, offset: int
) -> None:
    N = len(perm)
    half = N // 2
    if N == 2:
        settings.stages[stage0][offset] = perm[0] == 1
        return
    n_sub = N.bit_length() - 1
    last = stage0 + 2 * n_sub - 2

    in_color = _two_color(perm)
    out_color = [0] * N
    for i, p in enumerate(perm):
        out_color[p] = in_color[i]

    for j in range(half):
        assert in_color[2 * j] != in_color[2 * j + 1], "input coloring failed"
        assert out_color[2 * j] != out_color[2 * j + 1], "output coloring failed"
        settings.stages[stage0][offset + j] = in_color[2 * j] == 1
        settings.stages[last][offset + j] = out_color[2 * j] == 1

    # sub-permutations on half-size terminal spaces: input i reaches its
    # sub-network's terminal i//2 and must exit at sub-terminal perm[i]//2
    top = [0] * half
    bottom = [0] * half
    for i, p in enumerate(perm):
        (top if in_color[i] == 0 else bottom)[i // 2] = p // 2
    _route_legacy(top, stage0 + 1, settings, offset)
    _route_legacy(bottom, stage0 + 1, settings, offset + half // 2)


def apply_settings_legacy(settings: BenesSettings) -> List[int]:
    """The original recursive simulator — oracle for
    :func:`apply_settings` / :func:`apply_settings_batch`."""
    N = settings.num_terminals
    result = [0] * N
    _apply_legacy(list(range(N)), 0, settings, 0, list(range(N)), result)
    return result


def _apply_legacy(
    tokens: List[int],
    stage0: int,
    settings: BenesSettings,
    offset: int,
    out_ids: List[int],
    result: List[int],
) -> None:
    """Push ``tokens`` through the sub-network whose outputs are the
    global outputs ``out_ids``; record arrivals in ``result``."""
    N = len(tokens)
    if N == 2:
        a, b = tokens
        if settings.stages[stage0][offset]:
            a, b = b, a
        result[a] = out_ids[0]
        result[b] = out_ids[1]
        return
    half = N // 2
    n_sub = N.bit_length() - 1
    last = stage0 + 2 * n_sub - 2

    top_in: List[int] = []
    bot_in: List[int] = []
    for j in range(half):
        a, b = tokens[2 * j], tokens[2 * j + 1]
        if settings.stages[stage0][offset + j]:
            a, b = b, a
        top_in.append(a)
        bot_in.append(b)

    top_out: List[int] = []
    bot_out: List[int] = []
    for j in range(half):
        pa, pb = out_ids[2 * j], out_ids[2 * j + 1]
        if settings.stages[last][offset + j]:
            pa, pb = pb, pa
        top_out.append(pa)
        bot_out.append(pb)

    _apply_legacy(top_in, stage0 + 1, settings, offset, top_out, result)
    _apply_legacy(bot_in, stage0 + 1, settings, offset + half // 2, bot_out, result)
