"""Pin the SMEM seeds of the map-stream read set byte for byte.

The map-stream check compares ``MappingService.map_stream`` against
``ReadMapper``, and both share one ``SmemSeeder``, so a seeding change
that moved a seed would pass that check unnoticed.  This test seeds
both strands of every read of the 200 kbp, seed-0 stream and hashes
the ``(qpos, rpos, length)`` lists.
"""

import hashlib
import json

from repro.pipeline import build_read_stream
from repro.seeding import SmemSeeder
from repro.seqs import GenomeConfig, synthetic_genome
from repro.seqs.alphabet import reverse_complement

DIGEST = "bd64407bbe9aae687e8fbb218d72b3b0e9791293df2b448e5a0bd7bdbab0862e"
N_SEEDS = 1087


def test_map_stream_seed_digest():
    reference = synthetic_genome(GenomeConfig(length=200_000), seed=0)
    reads = build_read_stream(reference, n_short=192, n_long=40, n_noise=24, seed=0)
    seeder = SmemSeeder(reference)
    payload = []
    for read in reads:
        for strand in (read, reverse_complement(read)):
            payload.append([[s.qpos, s.rpos, s.length] for s in seeder.seed(strand)])
    assert sum(len(seeds) for seeds in payload) == N_SEEDS
    blob = json.dumps(payload, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
