"""parser — natural-language link parser (hash-table probing, many load
sites, DLT-capacity sensitive).

Behaviour reproduced: dictionary lookups — hash a key from a strided token
stream, load a bucket head, walk a short *scrambled* chain comparing keys.
The probe code is replicated across many distinct sites (real parser code
inlines lookups all over), so hundreds of static load PCs are live at
once: exactly what makes parser one of the two benchmarks that want a
bigger DLT in Figure 8 (small DLTs evict entries before their 256-access
monitoring window completes).  The key-compare branch is data dependent,
so traces exit early and coverage stays low (Figure 4).
"""

from __future__ import annotations

from .base import Workload, counted_loop, new_parts
from .data import build_array, build_hash_table, random_below

NUM_SITES = 40               # replicated probe sites (distinct PCs)
BUCKETS = 16_384
CHAIN_LENGTH = 4
NODE_WORDS = 4
PROBES_PER_SITE = 600        # just over two DLT monitoring windows
OUTER_ITERS = 50_000


def build(seed: int = 1) -> Workload:
    parts = new_parts("parser", seed)
    asm = parts.asm

    bucket_base = build_hash_table(
        parts.alloc,
        buckets=BUCKETS,
        chain_length=CHAIN_LENGTH,
        node_words=NODE_WORDS,
        rng=parts.rng,
    )
    tokens = build_array(
        parts.alloc,
        NUM_SITES * PROBES_PER_SITE,
        init=random_below(parts.rng, 1 << 16, NUM_SITES * PROBES_PER_SITE),
    )

    close_outer = counted_loop(asm, "r21", OUTER_ITERS, "sentence")
    asm.li("r1", tokens)
    for site in range(NUM_SITES):
        close_probe = counted_loop(
            asm, "r22", PROBES_PER_SITE, f"probe_{site}"
        )
        asm.ldq("r2", "r1", 0)            # token key (strided stream)
        asm.lda("r1", "r1", 8)
        # hash = key & (BUCKETS - 1)
        asm.and_("r3", "r2", imm=BUCKETS - 1)
        asm.sll("r3", "r3", imm=3)
        asm.li("r4", bucket_base)
        asm.addq("r3", "r3", rb="r4")
        asm.ldq("r5", "r3", 0)            # bucket head (irregular gather)
        # Walk up to two nodes; the compare branch is data dependent.
        for depth in range(2):
            asm.ldq("r6", "r5", 8)        # node->key (scrambled chain)
            asm.cmpeq("r7", "r6", rb="r2")
            asm.bne("r7", f"hit_{site}_{depth}")
            asm.ldq("r5", "r5", 0)        # node->next
            asm.label(f"hit_{site}_{depth}")
        asm.ldq("r8", "r5", 16)           # node->value
        asm.addq("r11", "r11", rb="r8")
        close_probe()
    close_outer()
    asm.halt()

    return Workload(
        name="parser",
        program=asm.build(),
        memory=parts.memory,
        description=(
            "40 replicated hash-probe sites over a chained, scrambled "
            "dictionary; ~280 static load PCs."
        ),
        kind="irregular",
        paper_notes=(
            "Low trace coverage (data-dependent exits) and DLT-capacity "
            "sensitivity (Figure 8's parser shape)."
        ),
    )
