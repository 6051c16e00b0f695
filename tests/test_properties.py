"""Property-based and randomized tests over core invariants.

Covers: the shared arithmetic semantics, PAC's bit-exact extraction on
random protocol layouts, the ME-simulated 64-bit expansion, the trie
against the LPM oracle on random tables, the CAM against a model, and
the greedy ME assignment against brute force.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation.throughput import assign_mes, stage_throughput
from repro.ir.eval import EvalError, eval_binop, eval_cmp, to_signed
from repro.ixp.cam import CAM
from repro.ixp.rings import Ring


# -- shared arithmetic semantics ---------------------------------------------------


BINOPS_TOTAL = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"]


@settings(max_examples=150)
@given(
    op=st.sampled_from(BINOPS_TOTAL),
    a=st.integers(min_value=0, max_value=(1 << 64) - 1),
    b=st.integers(min_value=0, max_value=(1 << 64) - 1),
    bits=st.sampled_from([32, 64]),
)
def test_eval_binop_reference(op, a, b, bits):
    mask = (1 << bits) - 1
    a &= mask
    b &= mask
    got = eval_binop(op, a, b, bits)
    sh = b & (bits - 1)
    expected = {
        "add": (a + b) & mask,
        "sub": (a - b) & mask,
        "mul": (a * b) & mask,
        "and": a & b,
        "or": a | b,
        "xor": a ^ b,
        "shl": (a << sh) & mask,
        "lshr": a >> sh,
        "ashr": (to_signed(a, bits) >> sh) & mask,
    }[op]
    assert got == expected
    assert 0 <= got <= mask


@settings(max_examples=100)
@given(
    a=st.integers(min_value=0, max_value=(1 << 32) - 1),
    b=st.integers(min_value=1, max_value=(1 << 32) - 1),
)
@example(a=0x80000000, b=0xFFFFFFFF)  # INT_MIN / -1: the one quotient that wraps
def test_eval_div_matches_c_semantics(a, b):
    # Unsigned: floor division. Signed: truncation toward zero, wrapped
    # to 32 bits (INT_MIN / -1 == INT_MIN, as C on the IXP computes it).
    assert eval_binop("div_u", a, b, 32) == a // b
    assert eval_binop("rem_u", a, b, 32) == a % b
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    q = eval_binop("div_s", a, b, 32)
    r = eval_binop("rem_s", a, b, 32)
    expect_q = abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)
    expect_r = abs(sa) % abs(sb) * (1 if sa >= 0 else -1)
    assert to_signed(q, 32) == to_signed(expect_q, 32)
    assert to_signed(r, 32) == expect_r
    # C identity: a == q*b + r (mod 2^32).
    assert (eval_binop("mul", q, b, 32) + r) & 0xFFFFFFFF == a


def test_eval_division_by_zero_raises():
    for op in ("div_u", "rem_u", "div_s", "rem_s"):
        with pytest.raises(EvalError):
            eval_binop(op, 1, 0, 32)


@settings(max_examples=100)
@given(
    a=st.integers(min_value=0, max_value=(1 << 32) - 1),
    b=st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_eval_cmp_total_order(a, b):
    assert eval_cmp("eq", a, b, 32) == int(a == b)
    assert eval_cmp("lt_u", a, b, 32) + eval_cmp("ge_u", a, b, 32) == 1
    assert eval_cmp("lt_s", a, b, 32) == int(to_signed(a, 32) < to_signed(b, 32))


# -- PAC: bit-exact extraction on random protocol layouts ----------------------------


def _random_protocol_source(rng):
    """A protocol with random field widths summing to <= 36 bytes, plus a
    PPF that reads every field (xor-folded into metadata) and rewrites
    the byte-aligned ones."""
    widths = []
    total = 0
    while total < 200 and len(widths) < 9:
        w = rng.choice([4, 8, 12, 16, 24, 32, 48, 64])
        if total + w > 280:
            break
        widths.append(w)
        total += w
    if total % 8:
        widths.append(8 - (total % 8))
    fields = "\n".join("  f%d : %d;" % (i, w) for i, w in enumerate(widths))
    reads = []
    for i, w in enumerate(widths):
        if w > 32:
            reads.append("acc = acc ^ (u32) ph->f%d;" % i)
            reads.append("acc = acc ^ (u32) (ph->f%d >> 32);" % i)
        else:
            reads.append("acc = acc ^ ph->f%d;" % i)
    stores = []
    bit = 0
    for i, w in enumerate(widths):
        if bit % 8 == 0 and w % 8 == 0 and w <= 32:
            stores.append("ph->f%d = acc + %d;" % (i, i))
        bit += w
    src = """
protocol p {
%s
  demux { %d };
}
metadata { u32 acc; }
module m {
  ppf go(p_pkt *ph) from rx {
    u32 acc = 0;
    %s
    %s
    ph->meta.acc = acc;
    channel_put(tx, ph);
  }
}
""" % (fields, sum(widths) // 8, "\n    ".join(reads), "\n    ".join(stores))
    return src


@pytest.mark.parametrize("seed", range(8))
def test_pac_random_layout_bit_exact(seed):
    from repro.baker import parse_and_check
    from repro.baker.lowering import lower_program
    from repro.opt import pac, soar
    from repro.opt.pipeline import scalar_optimize_function
    from repro.profiler.interpreter import run_reference
    from repro.profiler.trace import Trace, TracePacket

    rng = random.Random(seed + 100)
    src = _random_protocol_source(rng)
    data = bytes(rng.randrange(256) for _ in range(64))
    trace = Trace([TracePacket(data, 0)])

    ref = run_reference(lower_program(parse_and_check(src)), trace)

    mod = lower_program(parse_and_check(src))
    for fn in mod.functions.values():
        scalar_optimize_function(fn)
    pac.run(mod)
    soar.run(mod)
    got = run_reference(mod, trace)
    assert got.tx_payloads() == ref.tx_payloads(), src
    assert [p.meta.get(4) for p in got.tx] == [p.meta.get(4) for p in ref.tx]


# -- 64-bit operations through the full code generator -------------------------------


U64_OP_SOURCES = {
    "add": "u64 r = a + b;",
    "xor": "u64 r = a ^ b;",
    "and": "u64 r = a & b;",
    "or": "u64 r = a | b;",
    "shl": "u64 r = a << 24;",
    "lshr": "u64 r = a >> 24;",
    "sub": "u64 r = a - b;",
}


@pytest.mark.parametrize("op", sorted(U64_OP_SOURCES))
def test_u64_ops_on_simulator(op):
    """Embed two u64 operands in packet fields, compute on the simulated
    ME (register-pair expansion), and read the result from metadata."""
    from repro.compiler import compile_baker
    from repro.options import options_for
    from repro.profiler.trace import Trace, TracePacket
    from repro.rts.system import verify_against_reference

    src = """
protocol p { a : 64; b : 64; demux { 16 }; }
metadata { u32 lo; u32 hi; }
module m {
  ppf go(p_pkt *ph) from rx {
    u64 a = ph->a;
    u64 b = ph->b;
    %s
    ph->meta.lo = (u32) r;
    ph->meta.hi = (u32) (r >> 32);
    channel_put(tx, ph);
  }
}
""" % U64_OP_SOURCES[op]
    rng = random.Random(hash(op) & 0xFFFF)
    packets = []
    for _ in range(4):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        packets.append(TracePacket(a.to_bytes(8, "big") + b.to_bytes(8, "big")
                                   + bytes(48), 0))
    trace = Trace(packets)
    result = compile_baker(src, options_for("O2"), trace)
    assert verify_against_reference(result, trace, packets=4), op


# -- trie vs LPM oracle on random tables ----------------------------------------------


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_trie_random_tables_match_oracle(seed):
    from repro.apps.l3switch import L3SwitchApp
    from repro.baker import parse_and_check
    from repro.baker.lowering import lower_program
    from repro.profiler.interpreter import Interpreter

    app = L3SwitchApp(n_routes=48, seed=seed)
    mod = lower_program(parse_and_check(app.source))
    interp = Interpreter(mod)
    interp.run_inits()

    def trie_lookup(addr):
        e = interp.globals.load("trie16", (addr >> 16) * 4, 4)
        if e & 0x40000000:
            e = interp.globals.load(
                "trie8", (((e & 0xFFFF) << 8) + ((addr >> 8) & 0xFF)) * 4, 4)
        return e & 0xFFFF if e & 0x80000000 else 0

    rng = random.Random(seed)
    addrs = app.routes.addresses_in(120, seed=seed + 1)
    addrs += [rng.getrandbits(32) for _ in range(60)]  # random misses too
    for addr in addrs:
        assert trie_lookup(addr) == app.routes.lookup(addr), hex(addr)


# -- CAM against a model ---------------------------------------------------------------


@settings(max_examples=60)
@given(keys=st.lists(st.integers(min_value=0, max_value=23), min_size=1,
                     max_size=120))
def test_cam_against_lru_model(keys):
    cam = CAM()
    model = {}  # key -> True (present), with LRU order list
    order = []
    for key in keys:
        r = cam.lookup(key)
        hit = r & 1
        entry = r >> 1
        assert hit == int(key in model)
        if hit:
            assert model[key] == entry
            order.remove(key)
            order.append(key)
        else:
            cam.write(entry, key)
            # The victim entry loses whatever key it held.
            for k, e in list(model.items()):
                if e == entry:
                    del model[k]
                    order.remove(k)
            model[key] = entry
            order.append(key)
        assert len(model) <= 16


def test_ring_fifo_property():
    rng = random.Random(7)
    ring = Ring("r", capacity=16)
    model = []
    for _ in range(500):
        if rng.random() < 0.5:
            v = rng.randrange(1, 1 << 32)
            ok = ring.put(v)
            if len(model) < 16:
                assert ok
                model.append(v)
            else:
                assert not ok
        else:
            got = ring.get()
            expect = model.pop(0) if model else 0
            assert got == expect


# -- greedy ME assignment is max-min optimal -------------------------------------------


@settings(max_examples=60)
@given(
    costs=st.lists(st.integers(min_value=50, max_value=900), min_size=1,
                   max_size=3),
    n_mes=st.integers(min_value=1, max_value=6),
)
def test_assign_mes_optimal_for_small_cases(costs, n_mes):
    costs = [float(c) for c in costs]
    if n_mes < len(costs):
        assert assign_mes(costs, n_mes) == [0] * len(costs)
        return
    greedy = assign_mes(costs, n_mes)
    assert sum(greedy) == n_mes and all(m >= 1 for m in greedy)
    greedy_value = min(stage_throughput(c, m) for c, m in zip(costs, greedy))

    best = 0.0
    for combo in itertools.product(range(1, n_mes + 1), repeat=len(costs)):
        if sum(combo) != n_mes:
            continue
        value = min(stage_throughput(c, m) for c, m in zip(costs, combo))
        best = max(best, value)
    assert greedy_value == pytest.approx(best)


# -- CAM MRU-on-miss gives distinct victims to concurrent missing threads --------------


def test_cam_concurrent_miss_victims_distinct():
    cam = CAM()
    victims = [cam.lookup(1000 + i) >> 1 for i in range(8)]
    assert len(set(victims)) == 8
