"""Every registry workload builds the same image and program, bit for bit.

A workload's initial memory image and its ``Program`` feed every golden
cell, cache key and checkpoint digest.  These digests pin both for seed
1: the image as ``pickle`` of its word dict (values *and* insertion
order, which a snapshot's digest and a pickled view both depend on), the
program as its canonical pickle.  A builder rewrite that changes either
in any way fails here.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.checkpoint.snapshot import canonical_dumps
from repro.workloads.registry import all_workload_names, load_workload

#: name -> (image digest, program digest) at seed 1.  Workloads whose
#: arrays are never initialised have an empty image.
PINNED = {
    "applu": ("e90be3d12199278cfd65fa75af7fa3e0", "939051a5d125ad00f54293221238c3a4"),
    "art": ("e90be3d12199278cfd65fa75af7fa3e0", "f861e99e64abb47567988ddde607a069"),
    "dot": ("41bed6720e86a6eabe431673fc047451", "0da32c21bcc612e32558b771c6a160db"),
    "equake": ("ed5923f054a0781ab2106d0aaa12b287", "63d44b6ab1f072251318a0be04709bd1"),
    "facerec": ("e90be3d12199278cfd65fa75af7fa3e0", "0a15765dbf31344d294c920013ac15de"),
    "fma3d": ("e90be3d12199278cfd65fa75af7fa3e0", "477d79c395da4171c8c367a0464e9a49"),
    "galgel": ("e90be3d12199278cfd65fa75af7fa3e0", "cf9a690c8277706ee854d38bb43e3ea5"),
    "gap": ("e90be3d12199278cfd65fa75af7fa3e0", "12a24d810044b3f0f70ac8ea7067ca5f"),
    "mcf": ("6bb01e68531769c5dce2c26f29e19dd9", "b54916e6aeb9850a253ea52b45e58710"),
    "mgrid": ("e90be3d12199278cfd65fa75af7fa3e0", "251fafd5fd4627aae486a3a1a6ed09c2"),
    "parser": ("b5b85d88f956dcb091fed5a2f53267e0", "b9bb69efd6d048837d74ace4558b6338"),
    "swim": ("e90be3d12199278cfd65fa75af7fa3e0", "34cfc4c59e94190272c049c6ef1eff1b"),
    "vis": ("e3fd4cc89cb516fcd731d5950d434e04", "89e3315dce7fee3dec7fa1bd925a08fb"),
    "wupwise": ("e90be3d12199278cfd65fa75af7fa3e0", "7e3b6fb893d407f637a6c5a1854af60e"),
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(all_workload_names())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_image_and_program_are_unchanged(name):
    workload = load_workload(name, 1)
    image = _digest(pickle.dumps(workload.memory.words(), protocol=4))
    program = _digest(canonical_dumps(workload.program))
    assert (image, program) == PINNED[name]
