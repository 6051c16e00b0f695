"""Boot-once loading: ``load_system`` writes a post-``init`` image of the
globals that is computed once per ``CompileResult``; plus the loader's
capacity diagnostics."""

import pytest

from repro.apps import get_app
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.options import options_for
from repro.profiler.interpreter import GlobalMemory, Interpreter
from repro.profiler.trace import ipv4_trace
from repro.rts.loader import LoaderError, boot_image, load_system
from repro.rts.system import run_on_simulator, verify_against_reference
from repro.serve import ChurnSpec, build_app, build_mutations
from repro.serve.churn import ControlPlane
from repro.sweep.cache import CompileCache
from tests.samples import PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


@pytest.fixture(scope="module")
def l3switch():
    """l3switch builds its route trie in an 80k-instruction init block."""
    app = get_app("l3switch")
    trace = app.make_trace(60, seed=5)
    return compile_baker(app.source, options_for("BASE"), trace), trace


def _loaded(result, n_mes=1):
    chip = IXP2400(n_programmable_mes=n_mes)
    return chip, load_system(result, chip, n_mes=n_mes)


def _memory(chip):
    return {space: bytes(store) for space, store in chip.memory.stores.items()}


def test_compile_leaves_the_image_to_the_first_load(l3switch):
    app = get_app("l3switch")
    fresh = compile_baker(app.source, options_for("BASE"), l3switch[1])
    assert fresh.boot_image is None
    _loaded(fresh)
    assert set(fresh.boot_image) == set(fresh.mod.globals)
    assert all(type(data) is bytes for data in fresh.boot_image.values())


def test_second_load_is_byte_identical_and_interprets_nothing(l3switch, monkeypatch):
    result, _ = l3switch
    first, _ = _loaded(result)
    calls = []
    real = Interpreter._exec_function
    monkeypatch.setattr(
        Interpreter, "_exec_function",
        lambda self, fn, args: calls.append(fn.name) or real(self, fn, args))
    second, _ = _loaded(result)
    assert calls == []
    assert _memory(first) == _memory(second)


def test_image_equals_booting_the_inits_on_the_chip(l3switch):
    """The reference the image replaced: run the init blocks on the
    XScale against simulated memory holding the initializer values."""
    result, _ = l3switch
    image = boot_image(result)
    pristine = GlobalMemory(result.mod).image()
    assert any(image[g] != buf for g, buf in pristine.items()), \
        "init block changed nothing: the comparison would be vacuous"
    chip, layout = _loaded(result)
    for name, buf in pristine.items():
        chip.memory.write_bytes(layout.global_space[name],
                                layout.global_addr[name], buf)
    chip.xscale.run_inits()
    booted, _ = _loaded(result)
    assert _memory(chip) == _memory(booted)


def test_control_plane_write_does_not_leak_into_the_next_chip():
    app = build_app("l3switch")
    result = compile_baker(app.source, options_for("BASE"),
                           app.make_trace(60))
    chip, layout = _loaded(result)
    before = dict(boot_image(result))
    mutation = build_mutations("l3switch", app, ChurnSpec("route-flap"),
                               seed=0)[0]
    control = ControlPlane(chip, layout)
    control.apply(mutation)
    assert control.globals.load(mutation.target, mutation.offset,
                                mutation.width) == mutation.new_value
    assert boot_image(result) == before
    fresh_chip, fresh_layout = _loaded(result)
    fresh = ControlPlane(fresh_chip, fresh_layout)
    assert fresh.globals.load(mutation.target, mutation.offset,
                              mutation.width) == mutation.old_value


def test_cached_result_boots_to_the_same_image(l3switch, tmp_path):
    result, trace = l3switch
    chip, _ = _loaded(result)
    CompileCache(str(tmp_path), enabled=True).store("k" * 64, (result, trace))
    reloaded, _ = CompileCache(str(tmp_path), enabled=True).load("k" * 64)
    assert reloaded is not result
    # Whatever the pickle carried, a result that never booted must still
    # reach the same memory.
    reloaded.boot_image = None
    again, _ = _loaded(reloaded)
    assert _memory(chip) == _memory(again)


# -- capacity diagnostics -----------------------------------------------------------


def _compile_with_global(decl):
    trace = ipv4_trace(8, [0xC0A80101], MACS, seed=1)
    return compile_baker(decl + PASSTHROUGH, options_for("BASE"), trace)


def test_oversize_sram_global_is_a_loader_error():
    result = _compile_with_global("u32 big[1100000];")  # 4.4 MB > 4 MiB SRAM
    with pytest.raises(LoaderError, match="sram memory exhausted by global big"):
        _loaded(result)


def test_oversize_scratch_global_is_a_loader_error():
    result = _compile_with_global("u32 mid[5000];")  # 20 KB > 16 KiB scratch
    result.mod.globals["mid"].memory = "scratch"
    with pytest.raises(LoaderError, match="scratch memory exhausted by global mid"):
        _loaded(result)


def test_compile_without_images_is_a_loader_error():
    """A compile made with ``codegen=False`` has a plan but no ME images:
    every way onto the chip says so, naming the aggregate."""
    trace = ipv4_trace(8, [0xC0A80101], MACS, seed=1)
    result = compile_baker(PASSTHROUGH, options_for("BASE"), trace,
                           codegen=False)
    (agg,) = result.plan.me_aggregates
    match = "no ME image for aggregate %s" % agg.name
    with pytest.raises(LoaderError, match=match):
        _loaded(result)
    with pytest.raises(LoaderError, match=match):
        run_on_simulator(result, trace, n_mes=1)
    with pytest.raises(LoaderError, match=match):
        verify_against_reference(result, trace, packets=8)
