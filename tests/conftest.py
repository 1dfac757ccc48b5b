"""Shared fixtures. Ray is initialised ONCE per pytest session; tests that
never touch Ray simply don't request the fixture."""

from __future__ import annotations

import os
import subprocess

import pytest

SF_TINY = "/root/testdata/sf0.001"
SF_SMALL = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    did_init = False
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        did_init = True
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    # only tear down a session this fixture created — an adopted
    # pre-existing cluster belongs to whoever started it
    if did_init:
        ray.shutdown()


@pytest.fixture(scope="session")
def reference_binaries(tmp_path_factory):
    """Compile the reference C++ binaries (conformance tests only).
    Skips the dependent tests when g++ or a reference source is
    unavailable; a failed compile of a present source still errors."""
    import shutil

    if shutil.which("g++") is None:
        pytest.skip("g++ not available; skipping reference-conformance tests")
    d = tmp_path_factory.mktemp("refbin")
    ocm_bin = str(d / "ref_ocm")
    cm_bin = str(d / "ref_cm")
    for src, out in [("/root/reference/main.cpp", ocm_bin),
                     ("/root/reference/cm.cpp", cm_bin)]:
        if not os.path.exists(src):
            pytest.skip(f"reference source {src} absent; skipping "
                        "reference-conformance tests")
        subprocess.run(["g++", "-std=c++17", "-O2", "-w", "-o", out, src],
                       check=True, capture_output=True)
    return {"ocm": ocm_bin, "cm": cm_bin}


@pytest.fixture(scope="session")
def parity_fasta(tmp_path_factory):
    """Deterministic >100 KB FASTA fixture (FIXTURES.md F4)."""
    from ocm_ray.core.dna_compat import random_fasta

    data = random_fasta(300, 400, seed=42)
    assert len(data) >= 100000
    p = tmp_path_factory.mktemp("fa") / "parity.fa"
    p.write_bytes(data)
    return str(p)
