#!/usr/bin/env python3
"""Time one forward frame inline and with the helper thread, interleaved.

    PYTHONPATH=src python3 scripts/overlap_timing.py --hidden 256 --members 10 \
        --batch 1 --length 300 --repeats 9

Builds a random network of the given shape (a stack of --members networks
when it is 2 or more) and runs `network.forward_frame` over --length steps
of --batch streams, without dropout or caches, as `infer_stream` and the
validation windows do. Each repeat times one frame per mode, alternating
which mode goes first: "inline" sets `overlap.MIN_MACS` above any task and
"helper" sets it to 0, as the tests force a mode. It prints the per-mode
median and quartiles in milliseconds, helper / inline, the multiply-adds
`overlap.offload` is asked about and the mode the real MIN_MACS picks. Set
OPENBLAS_NUM_THREADS=1 (the benchmark's setting) to time one BLAS thread per
CPU.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from lstmens import init_network, overlap
from lstmens.network import LstmNetwork, forward_frame
from lstmens.rng import Rng

INLINE = 1 << 62  # a MIN_MACS no task reaches


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build(args):
    rng = Rng(args.seed)
    nets = [init_network(args.input, args.hidden, args.classes, args.layers, rng)
            for _ in range(args.members)]
    net = nets[0] if args.members == 1 else LstmNetwork(np.stack([n.flat for n in nets]),
                                                        nets[0].shape)
    inputs = rng.normal_block(args.length * args.batch * args.input)
    return net, inputs.reshape(args.length, args.batch, args.input)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", type=positive, default=6, help="input channels D")
    p.add_argument("--hidden", type=positive, default=256)
    p.add_argument("--layers", type=positive, default=2)
    p.add_argument("--classes", type=positive, default=6)
    p.add_argument("--members", type=positive, default=2, help="stacked networks M")
    p.add_argument("--batch", type=positive, default=1, help="streams B")
    p.add_argument("--length", type=positive, default=300, help="timesteps L")
    p.add_argument("--repeats", type=positive, default=9)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    if not overlap.ready():
        print("no helper thread here (it needs sched_setaffinity and 2 CPUs)", file=sys.stderr)
        return 1
    net, inputs = build(args)
    macs = args.members * args.batch * args.hidden * 4 * sum(net.layers[-1].dims)
    real = overlap.MIN_MACS
    shares = args.members > 1 or args.layers > 1  # a lone 1-layer net runs inline
    modes = {"inline": INLINE, "helper": 0}
    times = {mode: [] for mode in modes}
    try:
        for r in range(args.repeats):
            for mode in (list(modes) if r % 2 == 0 else list(modes)[::-1]):
                overlap.MIN_MACS = modes[mode]
                t0 = time.perf_counter()
                forward_frame(net, inputs, net.zero_state(args.batch))
                times[mode].append(time.perf_counter() - t0)
    finally:
        overlap.MIN_MACS = real

    print(f"# {args.layers}x{args.hidden} M={args.members} B={args.batch} L={args.length}"
          f" D={args.input} K={args.classes}, {args.repeats} repeats")
    print(f"# offload asks about {macs} multiply-adds (2^{np.log2(macs):.2f}); "
          f"MIN_MACS={real} picks {'helper' if shares and macs >= real else 'inline'}")
    print("mode,median_ms,q1_ms,q3_ms")
    for mode, values in times.items():
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{mode},{1e3 * statistics.median(values):.3f},{1e3 * q1:.3f},{1e3 * q3:.3f}")
    ratio = statistics.median(times["helper"]) / statistics.median(times["inline"])
    print(f"helper/inline,{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
