#!/usr/bin/env python3
"""Known-answer input generator for the llhsc benchmark.

    python3 perfbench/gen.py --seed N --out DIR

writes DIR/manifest.json plus the DTS, delta and feature-model files it
names. Every input carries the finding set llhsc must report for it. The
answers are derived here from the rule catalog (docs/rules.md) with an
independent model of the board: an address map for `address-overlap`, the
reference graph for the crossref and graph rules, and brute-force
enumeration of the feature model for the product line. Nothing here runs
llhsc.

A finding is keyed as [rule, subject] or, for pairwise rules, as
[rule, subject, other]; pairwise keys compare unordered.
"""

import argparse
import itertools
import json
import os
import random

UART_STRIDE = 0x10000
UART_SIZE = 0x1000
UART_BASE = 0x10000000
GIC_BASE = 0x08000000
CLK_BASE = 0x08100000
MEM_BASE = 0x80000000

# Defects injected into board-cold boards, cycled per seed. Each names the
# rule of docs/rules.md it is built to trigger.
BOARD_DEFECTS = [
    "address-overlap",
    "reg-truncation",
    "missing-required",
    "phandle-dangling",
    "graph-provider-cycle",
    "interrupt-collision",
]


def hexs(v):
    return "0x%x" % v


class Board:
    """A generated board and the facts its expected findings follow from."""

    def __init__(self, addr_cells):
        self.addr_cells = addr_cells
        self.lines = []
        self.nodes = 0
        # (region path, base, size) in the root address space.
        self.regions = []
        # consumer path -> list of provider labels (or None = dangling).
        self.clock_refs = {}
        # provider label -> path, in document order.
        self.clock_providers = {}
        self.expected = []

    def cells(self, value):
        if self.addr_cells == 2:
            return "0x%x 0x%x" % (value >> 32, value & 0xFFFFFFFF)
        return hexs(value)


def overlap_findings(regions):
    """address-overlap: one finding per pair of regions that intersect."""
    out = []
    ordered = sorted(regions, key=lambda r: (r[1], r[0]))
    for i, (pa, ba, sa) in enumerate(ordered):
        for pb, bb, sb in ordered[i + 1:]:
            if bb >= ba + sa:
                break
            out.append(["address-overlap", pa, pb])
    return out


def make_board(rng, nodes_target, addr_cells, defect, rev_placeholder=False):
    """A board of about `nodes_target` nodes: CPUs, memory banks, an
    interrupt controller, clock providers referenced by phandle, and a
    simple-bus of ns16550a UARTs that consume both. `defect` injects one
    known fault (see BOARD_DEFECTS) or None for a clean board."""
    b = Board(addr_cells)
    ncpu = rng.choice([2, 4])
    nmem = 2 if addr_cells == 2 else 1
    fixed = 1 + (1 + ncpu) + nmem + 1 + 1  # root, cpus, memory, gic, soc
    nclk = max(2, (nodes_target - fixed) // 24)
    nuart = nodes_target - fixed - nclk
    if defect == "reg-truncation":
        nuart -= 1  # the truncated DMA engine takes its place
    assert nuart >= 2 * nclk

    L = b.lines
    L.append("/dts-v1/;")
    L.append("")
    L.append("/ {")
    L.append("\t#address-cells = <%d>;" % addr_cells)
    L.append("\t#size-cells = <%d>;" % addr_cells)
    L.append('\tcompatible = "acme,bench-board";')
    L.append('\tmodel = "llhsc benchmark board";')
    if rev_placeholder:
        L.append("\tbench-rev = <@REV@>;")
    L.append("\tinterrupt-parent = <&gic>;")
    b.nodes += 1

    L.append("\tcpus {")
    L.append("\t\t#address-cells = <1>;")
    L.append("\t\t#size-cells = <0>;")
    b.nodes += 1
    for c in range(ncpu):
        L.append("\t\tcpu@%d {" % c)
        L.append('\t\t\tcompatible = "arm,cortex-a53";')
        if not (defect == "missing-required" and c == 1):
            L.append('\t\t\tdevice_type = "cpu";')
        L.append("\t\t\treg = <%d>;" % c)
        L.append('\t\t\tenable-method = "psci";')
        L.append("\t\t};")
        b.nodes += 1
    L.append("\t};")
    if defect == "missing-required":
        b.expected.append(["missing-required", "/cpus/cpu@1"])

    for m in range(nmem):
        base = MEM_BASE if m == 0 else 0x100000000
        size = 0x40000000
        path = "/memory@%x" % base
        L.append("\tmemory@%x {" % base)
        L.append('\t\tdevice_type = "memory";')
        L.append("\t\treg = <%s %s>;" % (b.cells(base), b.cells(size)))
        L.append("\t};")
        b.regions.append((path + "[0]", base, size))
        b.nodes += 1

    L.append("\tgic: interrupt-controller@%x {" % GIC_BASE)
    L.append('\t\tcompatible = "arm,gic-400";')
    L.append("\t\treg = <%s %s>;" % (b.cells(GIC_BASE), b.cells(0x10000)))
    L.append("\t\tinterrupt-controller;")
    L.append("\t\t#interrupt-cells = <3>;")
    L.append("\t};")
    b.regions.append(("/interrupt-controller@%x[0]" % GIC_BASE, GIC_BASE,
                      0x10000))
    b.nodes += 1

    # Clock providers. With the cycle defect the first two also consume
    # each other's clock output.
    for k in range(nclk):
        base = CLK_BASE + k * 0x1000
        path = "/clock-controller@%x" % base
        label = "clk%d" % k
        b.clock_providers[label] = path
        L.append("\t%s: clock-controller@%x {" % (label, base))
        L.append('\t\tcompatible = "acme,clkctl";')
        L.append("\t\treg = <%s %s>;" % (b.cells(base), b.cells(0x1000)))
        L.append("\t\t#clock-cells = <1>;")
        if defect == "graph-provider-cycle" and k < 2:
            other = "clk%d" % (1 - k)
            L.append("\t\tclocks = <&%s 0>;" % other)
            b.clock_refs[path] = [other]
        L.append("\t};")
        b.regions.append((path + "[0]", base, 0x1000))
        b.nodes += 1
    if defect == "graph-provider-cycle":
        # One finding per strongly connected component, anchored on its
        # first node in document order.
        b.expected.append(["graph-provider-cycle", b.clock_providers["clk0"]])

    L.append("\tsoc {")
    L.append('\t\tcompatible = "simple-bus";')
    L.append("\t\t#address-cells = <1>;")
    L.append("\t\t#size-cells = <1>;")
    L.append("\t\tranges;")
    b.nodes += 1

    bases = [UART_BASE + i * UART_STRIDE for i in range(nuart)]
    irqs = [32 + i for i in range(nuart)]
    dangling = None
    if defect == "address-overlap":
        i, j = sorted(rng.sample(range(nuart), 2))
        bases[j] = bases[i] + UART_SIZE // 2
    elif defect == "interrupt-collision":
        i, j = sorted(rng.sample(range(nuart), 2))
        irqs[j] = irqs[i]
        b.expected.append(["interrupt-collision", "/soc/uart@%x" % bases[i],
                           "/soc/uart@%x" % bases[j]])
    elif defect == "phandle-dangling":
        dangling = rng.randrange(nuart)

    for i in range(nuart):
        path = "/soc/uart@%x" % bases[i]
        L.append("\t\tuart@%x {" % bases[i])
        L.append('\t\t\tcompatible = "ns16550a";')
        L.append("\t\t\treg = <%s %s>;" % (hexs(bases[i]), hexs(UART_SIZE)))
        if i == dangling:
            # No node carries phandle 0xdead: the reference dangles, and the
            # enabled UART depends on a provider that does not exist.
            L.append("\t\t\tclocks = <0xdead 0>;")
            b.clock_refs[path] = [None]
            b.expected.append(["phandle-dangling", path])
            b.expected.append(["graph-status-propagation", path])
        else:
            label = "clk%d" % (i % nclk)
            L.append("\t\t\tclocks = <&%s %d>;" % (label, i % 8))
            b.clock_refs[path] = [label]
        L.append("\t\t\tinterrupts = <0 %d 4>;" % irqs[i])
        L.append("\t\t};")
        b.regions.append((path + "[0]", bases[i], UART_SIZE))
        b.nodes += 1

    if defect == "reg-truncation":
        # The paper's d3 scenario: the bus went to 1-cell addressing but the
        # DMA engine kept its 2-cell entries. <0x0 B 0x0 S> now reads as the
        # regions [0, B) and [0, S), and the unit address no longer matches
        # the first reg address.
        base = 0x09000000
        path = "/soc/dma@%x" % base
        L.append("\t\tdma@%x {" % base)
        L.append('\t\t\tcompatible = "acme,dma";')
        L.append("\t\t\treg = <0x0 %s 0x0 0x1000>;" % hexs(base))
        L.append("\t\t};")
        b.regions.append((path + "[0]", 0, base))
        b.regions.append((path + "[1]", 0, 0x1000))
        b.expected.append(["unit-address-mismatch", path])
        b.nodes += 1
    L.append("\t};")
    L.append("};")

    b.expected.extend(overlap_findings(b.regions))
    # provider-orphan: a provider that declares #clock-cells but that no
    # reference names.
    referenced = {l for refs in b.clock_refs.values() for l in refs if l}
    for label, path in b.clock_providers.items():
        if label not in referenced:
            b.expected.append(["provider-orphan", path])
    b.text = "\n".join(L) + "\n"
    return b


# ---------------------------------------------------------------------------
# Product line


class FeatureModel:
    """A feature tree with groups and cross-tree constraints, plus the
    brute-force semantics the expected answers are computed from."""

    def __init__(self, root):
        self.root = root
        self.parent = {root: None}
        self.children = {root: []}
        self.group = {root: "and"}
        self.mandatory = set()
        self.requires = []
        self.excludes = []

    def add(self, parent, name, mandatory=False, group="and"):
        self.parent[name] = parent
        self.children[name] = []
        self.children[parent].append(name)
        self.group[name] = group
        if mandatory:
            self.mandatory.add(name)

    def valid(self, sel):
        if self.root not in sel:
            return False
        for f in sel:
            p = self.parent[f]
            if p is not None and p not in sel:
                return False
        for f in sel:
            kids = self.children[f]
            chosen = [k for k in kids if k in sel]
            for k in kids:
                if k in self.mandatory and k not in sel:
                    return False
            g = self.group[f]
            if g == "or" and kids and not chosen:
                return False
            if g == "xor" and kids and len(chosen) != 1:
                return False
        for a, c in self.requires:
            if a in sel and c not in sel:
                return False
        for a, c in self.excludes:
            if a in sel and c in sel:
                return False
        return True

    def text(self, name):
        out = ["model %s {" % name]

        def emit(f, depth):
            kids = self.children[f]
            words = [f]
            if f in self.mandatory:
                words.append("mandatory")
            if kids and self.group[f] != "and":
                words.append("group %s" % self.group[f])
            pad = "    " * depth
            if kids:
                out.append(pad + " ".join(words) + " {")
                for k in kids:
                    emit(k, depth + 1)
                out.append(pad + "}")
            else:
                out.append(pad + " ".join(words) + ";")

        for k in self.children[self.root]:
            emit(k, 1)
        for a, c in self.requires:
            out.append("    constraint %s requires %s;" % (a, c))
        for a, c in self.excludes:
            out.append("    constraint %s excludes %s;" % (a, c))
        out.append("}")
        return "\n".join(out) + "\n"


def subtree_configs(model, top):
    """Every selection of the subtree under `top` (top included or not)
    that satisfies the subtree's own rules."""
    names = []

    def walk(f):
        names.append(f)
        for k in model.children[f]:
            walk(k)

    walk(top)
    out = []
    for bits in itertools.product([False, True], repeat=len(names)):
        out.append(frozenset(n for n, b in zip(names, bits) if b))
    return out


class Spl:
    pass


def make_spl(rng):
    """A product line of five components (24 features). Each component is
    an optional feature with an OR or XOR group of three leaves, a delta
    that gives the component's bus its address cells, and one delta per
    leaf that adds a device on that bus (plus one guarded by a leaf pair).
    Every delta of a component writes under its bus, so the deltas interact
    and the lifted
    engine joins them into one component. Some devices overlap, so the
    finding exists only under the feature combinations that select both.
    The family itself is the same for every seed, so the work per edit
    is too; the seed deals the leaves to the products and orders the
    edits."""
    spl = Spl()
    ncomp = 5
    fm = FeatureModel("bench")
    fm.add("bench", "board", mandatory=True, group="xor")
    fm.add("board", "rev_a")
    fm.add("board", "rev_b")
    comps = []
    for k in range(ncomp):
        ck = "c%d" % k
        group = "or" if k % 2 == 0 else "xor"
        fm.add("bench", ck, group=group)
        leaves = ["%s_%s" % (ck, x) for x in "abc"]
        for leaf in leaves:
            fm.add(ck, leaf)
        a, b, c = leaves
        if k % 4 == 0:
            fm.requires.append((a, b))
        elif k % 4 == 2:
            fm.excludes.append((b, c))
        fm.requires.append((c, "rev_b"))
        comps.append((ck, leaves))
    spl.model = fm

    # Configurations of each component subtree joined with the board choice:
    # constraints stay within one component and the board group, so the
    # family's valid configurations are their product.
    board_cfgs = [frozenset({"board", rev}) for rev in ("rev_a", "rev_b")]
    comp_cfgs = []
    for ck, leaves in comps:
        ok = []
        for bc in board_cfgs:
            for cc in subtree_configs(fm, ck):
                sel = {"bench"} | bc | cc
                # The other components stay unselected, which their
                # optional parents always allow.
                if fm.valid(sel):
                    ok.append((bc, cc))
        comp_cfgs.append(ok)
    spl.comp_cfgs = comp_cfgs

    core = []
    core.append("/dts-v1/;")
    core.append("")
    core.append("/ {")
    core.append("\t#address-cells = <1>;")
    core.append("\t#size-cells = <1>;")
    core.append('\tcompatible = "acme,bench-spl";')
    core.append("\tcpus {")
    core.append("\t\t#address-cells = <1>;")
    core.append("\t\t#size-cells = <0>;")
    for c in range(2):
        core.append("\t\tcpu@%d {" % c)
        core.append('\t\t\tcompatible = "arm,cortex-a53";')
        core.append('\t\t\tdevice_type = "cpu";')
        core.append("\t\t\treg = <%d>;" % c)
        core.append("\t\t};")
    core.append("\t};")
    core.append("\tmemory@%x {" % MEM_BASE)
    core.append('\t\tdevice_type = "memory";')
    core.append("\t\treg = <%s 0x10000000>;" % hexs(MEM_BASE))
    core.append("\t};")
    core.append("\tsoc {")
    core.append('\t\tcompatible = "simple-bus";')
    core.append("\t\t#address-cells = <1>;")
    core.append("\t\t#size-cells = <1>;")
    core.append("\t\tranges;")
    for i in range(8):
        base = UART_BASE + i * UART_STRIDE
        core.append("\t\tuart@%x {" % base)
        core.append('\t\t\tcompatible = "ns16550a";')
        core.append("\t\t\treg = <%s %s>;" % (hexs(base), hexs(UART_SIZE)))
        core.append("\t\t};")
    core.append("\t};")
    for ck, _ in comps:
        core.append("\tbus-%s {" % ck)
        core.append('\t\tcompatible = "simple-bus";')
        core.append("\t};")
    core.append("};")
    spl.core = "\n".join(core) + "\n"
    spl.core_regions = [("/memory@%x[0]" % MEM_BASE, MEM_BASE, 0x10000000)] + [
        ("/soc/uart@%x[0]" % (UART_BASE + i * UART_STRIDE),
         UART_BASE + i * UART_STRIDE, UART_SIZE) for i in range(8)]

    # Device deltas, each with its guard features, component and slot
    # offset. Slots are 0x1000 apart; an offset of 0x800 overlaps the
    # neighbouring slots.
    spl.comps = comps
    spl.devices = []  # dicts: delta, when (list of features), comp, offset
    for k, (ck, leaves) in enumerate(comps):
        # Leaf c's device sits half-way between those of leaves a and b,
        # so it overlaps both wherever the group and the constraints let
        # the leaves be selected together.
        offsets = [0x0, 0x1000, 0x800]
        for x, leaf in enumerate(leaves):
            spl.devices.append({"delta": "d_%s" % leaf, "when": [leaf],
                                "comp": k, "offset": offsets[x], "rev": 0})
        spl.devices.append({"delta": "d_%s_ab" % ck,
                            "when": [leaves[0], leaves[1]], "comp": k,
                            "offset": 0x3000, "rev": 0})

    # Products: three VMs on board rev_b. In each component the VMs take
    # the three leaves one each, in seeded order, and the VM whose leaf
    # requires another takes that one too. Every device delta is then
    # active in one or two VMs plus the platform, whatever the seed.
    # Exclusive features: leaf b of each OR component, which two VMs share
    # where leaf a requires it.
    picks = [{"bench", "board", "rev_b"} for _ in range(3)]
    for ck, leaves in comps:
        order = rng.sample(leaves, 3)
        for v in range(3):
            picks[v] |= {ck, order[v]}
            for x, y in fm.requires:
                if x == order[v] and y in leaves:
                    picks[v].add(y)
    spl.products = []
    for v, sel in enumerate(picks):
        assert fm.valid(sel)
        spl.products.append(("vm%d" % v, sorted(sel)))
    spl.exclusive = ["c%d_b" % k for k in range(0, ncomp, 2)]
    return spl


def comp_base(k):
    return 0x40000000 + k * 0x100000


def device_node(spl, d):
    base = comp_base(d["comp"]) + d["offset"]
    return "dev-%s@%x" % (d["delta"][2:].replace("_", "-"), base), base


def delta_text(spl, d):
    ck = spl.comps[d["comp"]][0]
    name, base = device_node(spl, d)
    cond = " && ".join(d["when"])
    return ("delta %s after d_%s when (%s) {\n"
            "    adds binding bus-%s {\n"
            "        %s {\n"
            "            compatible = \"acme,ip%d\";\n"
            "            reg = <%s 0x1000>;\n"
            "            bench-rev = <%s>;\n"
            "        };\n"
            "    }\n"
            "}\n") % (d["delta"], ck, cond, ck, name, d["comp"], hexs(base),
                      d["rev"])


def bus_delta_text(ck):
    return ("delta d_%s when %s {\n"
            "    modifies bus-%s {\n"
            "        #address-cells = <1>;\n"
            "        #size-cells = <1>;\n"
            "        ranges;\n"
            "    }\n"
            "}\n") % (ck, ck, ck)


def deltas_text(spl):
    parts = [bus_delta_text(ck) for ck, _ in spl.comps]
    parts += [delta_text(spl, d) for d in spl.devices]
    return "\n".join(parts)


def device_regions(spl, features):
    out = []
    for d in spl.devices:
        if all(f in features for f in d["when"]):
            name, base = device_node(spl, d)
            ck = spl.comps[d["comp"]][0]
            out.append(("/bus-%s/%s[0]" % (ck, name), base, 0x1000, d))
    return out


def unit_expectation(spl, features):
    regions = [(p, b, s) for p, b, s, _ in device_regions(spl, features)]
    return overlap_findings(spl.core_regions + regions)


def lifted_expectation(spl):
    """address-overlap for each pair of device regions that some valid
    configuration selects together."""
    out = []
    for k, cfgs in enumerate(spl.comp_cfgs):
        devs = [d for d in spl.devices if d["comp"] == k]
        for a, b in itertools.combinations(devs, 2):
            na, ba = device_node(spl, a)
            nb, bb = device_node(spl, b)
            if not (ba < bb + 0x1000 and bb < ba + 0x1000):
                continue
            need = set(a["when"]) | set(b["when"])
            if any(need <= cc for _, cc in cfgs):
                ck = spl.comps[k][0]
                out.append(["address-overlap", "/bus-%s/%s[0]" % (ck, na),
                            "/bus-%s/%s[0]" % (ck, nb)])
    return out


def allocation_expectation(spl):
    out = []
    for f in spl.exclusive:
        holders = [n for n, sel in spl.products if f in sel]
        if len(holders) > 1:
            out.append(["exclusivity-violation", f])
    return out


def session_units(spl):
    units = [(n, set(sel)) for n, sel in spl.products]
    platform = set()
    for _, sel in spl.products:
        platform |= set(sel)
    units.append(("platform", platform))
    return units


def spl_expectation(spl):
    exp = {"*": allocation_expectation(spl),
           "*lifted*": lifted_expectation(spl)}
    for name, feats in session_units(spl):
        exp[name] = unit_expectation(spl, feats)
    return exp


def unit_nodes(spl):
    """DTS nodes of each derived unit: the core plus one node per device
    delta the unit activates."""
    core = 1 + 1 + 2 + 1 + 1 + 8 + len(spl.comps)
    return {name: core + len(device_regions(spl, feats))
            for name, feats in session_units(spl)}


# Cycles in one period of product-line edits. Each cycle draws a fresh
# turn order and fresh displacement rounds, so a run's edits average over
# many layouts and the work per edit is about the same for every seed.
EDIT_CYCLES = 8


def make_edits(rng, spl):
    """One period of one-delta edits, each rewriting one device delta. The
    benchmark repeats the period for as long as a run lasts and stamps edit
    i with revision i + 1 (the @REV@ placeholder), so no two edits of a run
    are alike. The period is EDIT_CYCLES cycles. In each cycle the device
    deltas take four turns each, in an order the seed draws per cycle. In
    one of its first three turns, seeded, a device moves half a slot up,
    which can create or remove an overlap; in the others it sits at home.
    A third of the devices move in each of those turns, so about a quarter
    of the devices are displaced at any time, the work per edit stays even,
    and every cycle ends, like the period, in the initial layout. Records
    the units whose expected findings the edit changes and the number of
    session units whose derivation activates the edited delta."""
    edits = []
    units = session_units(spl)
    initial = spl_expectation(spl)
    before = initial
    device_deltas = [d for d in spl.devices if len(d["when"]) == 1]
    home = {d["delta"]: d["offset"] for d in device_deltas}
    for _ in range(EDIT_CYCLES):
        order = device_deltas[:]
        rng.shuffle(order)
        rounds = [i % 3 for i in range(len(order))]
        rng.shuffle(rounds)
        away = {d["delta"]: r for d, r in zip(order, rounds)}
        for turn in range(4):
            for d in order:
                d["offset"] = home[d["delta"]] + (
                    0x800 if turn == away[d["delta"]] else 0)
                d["rev"] = "@REV@"
                rederived = sum(1 for _, feats in units
                                if all(f in feats for f in d["when"]))
                after = spl_expectation(spl)
                edits.append({"index": len(spl.comps) + spl.devices.index(d),
                              "text": delta_text(spl, d),
                              "rederived": rederived,
                              "changed": {u: after[u] for u in after
                                          if after[u] != before[u]}})
                before = after
    assert before == initial and all(
        d["offset"] == home[d["delta"]] for d in device_deltas)
    return edits


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    os.makedirs(args.out, exist_ok=True)

    # board-cold: three size classes doubling in node count, five boards
    # per class, and every other board uses 64-bit (2-cell) root
    # addressing. Four boards carry a defect, about a quarter of the set:
    # one per class and a second in the smallest. An odd count per class
    # puts the median sample inside one board's cluster rather than between
    # two. The sizes put a 30-second run at four to eight passes over the
    # set on a 4-CPU host, 60 to 120 samples, whose tail is p75 or p90:
    # both fall among the largest boards.
    classes = [54, 108, 216]
    per_class = 5
    defects = BOARD_DEFECTS[:]
    rng.shuffle(defects)
    boards = []
    for ci, n in enumerate(classes):
        slots = rng.sample(range(per_class), 2 if ci == 0 else 1)
        for j in range(per_class):
            addr_cells = 2 if (ci + j) % 2 else 1
            defect = None
            if j in slots:
                defect = defects[ci if j == slots[0] else len(classes)]
                if defect == "reg-truncation":
                    addr_cells = 2
            b = make_board(rng, n, addr_cells, defect)
            fname = "board-%d-%d.dts" % (n, j)
            write(os.path.join(args.out, fname), b.text)
            boards.append({"file": fname, "size_class": n, "nodes": b.nodes,
                           "defect": defect or "", "expected": b.expected})

    # daemon-mixed: one unchanged board (the repeat share) and edited boards
    # of the same shape (the cold share); each cold request is stamped
    # with a fresh revision so no two are alike. 80 nodes put a 30-second
    # run of one connection at 1000 to 2400 requests on a 4-CPU host,
    # sample counts whose tail is p99 (1000 to 9999).
    daemon_nodes = 80
    base = make_board(random.Random(args.seed * 7919 + 1), daemon_nodes, 1,
                      None)
    write(os.path.join(args.out, "daemon-base.dts"), base.text)
    variants = []
    vrng = random.Random(args.seed * 7919 + 2)
    for v in range(8):
        defect = ["address-overlap", "interrupt-collision"][v % 2]
        b = make_board(random.Random(vrng.randrange(1 << 30)), daemon_nodes,
                       1, defect, rev_placeholder=True)
        fname = "daemon-edit-%d.dts" % v
        write(os.path.join(args.out, fname), b.text)
        variants.append({"file": fname, "nodes": b.nodes,
                         "expected": b.expected})

    spl = make_spl(rng)
    write(os.path.join(args.out, "spl.dts"), spl.core)
    write(os.path.join(args.out, "spl.fm"), spl.model.text(spl.model.root))
    write(os.path.join(args.out, "spl.deltas"), deltas_text(spl))
    modules = [bus_delta_text(ck) for ck, _ in spl.comps] + [
        delta_text(spl, d) for d in spl.devices]
    initial = spl_expectation(spl)
    edits = make_edits(rng, spl)

    manifest = {
        "seed": args.seed,
        "boards": boards,
        "daemon": {"base": "daemon-base.dts", "base_nodes": base.nodes,
                   "base_expected": base.expected, "edits": variants,
                   "repeat_share_per_mille": 800},
        "spl": {"core": "spl.dts", "model": "spl.fm",
                "modules": modules,
                "products": [{"name": n, "features": sel}
                             for n, sel in spl.products],
                "exclusive": spl.exclusive,
                "expected": initial,
                "unit_nodes": unit_nodes(spl),
                "edits": edits},
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(manifest, f)


if __name__ == "__main__":
    main()
