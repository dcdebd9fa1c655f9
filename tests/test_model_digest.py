"""Pin the SALoBa timing model byte for byte.

The modeled clock is what reproduces the paper, so any change to how
``SalobaKernel`` prices a launch must leave every modeled number
untouched.  This test hashes the full ``LaunchTiming`` of a mixed
dataset A+B stream, plus a tuner-style replicated sample, over every
combination of device, subwarp size, lazy spilling, shuffle exchange,
band and job sorting.
"""

import dataclasses
import hashlib
import itertools
import json

from repro.core import SalobaConfig, SalobaKernel
from repro.gpusim import GTX1650, RTX3090
from repro.serve.bench import mixed_stream

DIGEST = "709cd25caca5ed382d1469d82f8cb867d00ecb86ec98122c8315fb6897a13d59"


def _jobs():
    stream = mixed_stream(600, seed=0)
    # The serve tuner probes a bin sample replicated up to its default
    # micro-batch size, so most jobs share a few geometries.
    sample = stream[:48]
    reps = -(-4096 // len(sample))
    return stream + (sample * reps)[:4096]


def _timing_record(timing):
    if timing is None:
        return None
    return {
        "total_s": timing.total_s,
        "compute_s": timing.compute_s,
        "memory_s": timing.memory_s,
        "overhead_s": timing.overhead_s,
        "phases": [list(p) for p in timing.phases],
        "counters": timing.counters.as_dict(),
        "schedule": dataclasses.asdict(timing.schedule),
    }


def test_launch_timing_digest():
    jobs = _jobs()
    payload = []
    for device, subwarp, lazy, shuffle, band, sort_jobs in itertools.product(
        (GTX1650, RTX3090), (4, 8, 16, 32), (False, True), (False, True),
        (0, 16), (False, True),
    ):
        cfg = SalobaConfig(subwarp_size=subwarp, lazy_spill=lazy,
                           use_shuffle=shuffle, band=band)
        res = SalobaKernel(config=cfg, sort_jobs=sort_jobs).run(jobs, device)
        payload.append([device.name, subwarp, lazy, shuffle, band, sort_jobs,
                        _timing_record(res.timing)])
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
