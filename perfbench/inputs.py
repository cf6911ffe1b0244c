"""Benchmark inputs: the committed pools, their expected verdicts, and the
seeded streams each workload draws from them.

Every input the benchmark can ever send is a member of one of four *pools*,
each rebuilt deterministically from the program's own generators:

``table1``
    Table 1 random unsat entailments (``benchgen.random_unsat``, the paper's
    parameters), rows n=12..20.
``fold``
    Table 2 folding entailments (``benchgen.random_fold``), n=20..40.
``vc``
    The 76 example-suite verification conditions (``frontend.examples_suite``)
    cloned x1..x4 (``benchgen.cloning``).
``chain``
    Points-to chains that the right-hand side splits into two list segments,
    8..32 cells long: the shape of ``scripts/bench_load.py``'s problems, short
    enough that a cold one costs milliseconds.  One shape in five drops the
    last cell from the right-hand side and is invalid.

``expected.json`` (built by ``make_expected.py``) lists, for every member,
its id, a digest of its printed text, its expected verdict and which
independent source decided it (the Smallfoot-style baseline within a budget,
else the reference engine).  Loading a pool checks every digest, so a
generator that drifts fails the run instead of silently changing the inputs.

A ``--seed`` only *selects and orders* pool members and picks the fresh names
of alpha-renamed repeats; renaming preserves verdicts, so every input a run
sends has a known answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchgen.cloning import clone_entailment
from repro.benchgen.random_fold import FoldParameters, random_fold_batch
from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch
from repro.frontend.examples_suite import vcs_by_program
from repro.logic.formula import Entailment
from repro.logic.parser import parse_entailment
from repro.logic.printer import format_entailment
from repro.logic.terms import make_const

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

TABLE1_ROWS = tuple(range(12, 21))
FOLD_ROWS = (20, 25, 30, 35, 40)
CLONE_FACTORS = (1, 2, 3, 4)
CHAIN_LENGTHS = tuple(range(8, 33))

#: Generator seeds of the pools (fixed: the run's ``--seed`` never reaches
#: the generators, only the selection from what they produced).
TABLE1_GENERATOR_SEED = 11_000
FOLD_GENERATOR_SEED = 12_000


@dataclass(frozen=True)
class Item:
    """One pool member: an entailment with its expected verdict."""

    id: str
    entailment: Entailment
    verdict: str  # "valid" | "invalid"
    source: str  # "smallfoot" | "reference"


def digest(line: str) -> str:
    return hashlib.sha1(line.encode("utf-8")).hexdigest()[:16]


def chain_line(length: int, split: int, extras: int, tag: str = "v") -> str:
    """A ``length``-cell points-to chain split into two segments at ``split``.

    ``extras`` 1..3 add one or two redundant disequalities, so shapes with
    the same length and split stay structurally distinct; ``extras`` 4 ends
    the second segment at the last cell instead of ``nil``, which leaves that
    cell unmatched: an invalid entailment, answered with a counterexample.
    """
    names = ["{}{}".format(tag, j) for j in range(length)]
    cells = ["{} |-> {}".format(names[j], names[j + 1]) for j in range(length - 1)]
    cells.append("{} |-> nil".format(names[-1]))
    pure = []
    if extras in (1, 3):
        pure.append("{} != {}".format(names[0], names[-1]))
    if extras in (2, 3):
        pure.append("{} != {}".format(names[1], names[-1]))
    end = names[-1] if extras == 4 else "nil"
    return "{} |- lseg({}, {}) * lseg({}, {})".format(
        " * ".join(cells + pure), names[0], names[split], names[split], end
    )


def generate(pool: str, ids: Optional[Sequence[str]] = None) -> Dict[str, Entailment]:
    """Rebuild pool members from the generators, keyed by id.

    With ``ids`` only those members are built (plus whatever a generator must
    draw before them); without, every candidate the generators offer is built
    (``make_expected.py`` filters those).
    """
    out: Dict[str, Entailment] = {}
    if pool == "table1":
        wanted = _group(ids, rows=TABLE1_ROWS, default=460)
        for n, count in wanted.items():
            batch = random_unsat_batch(UnsatParameters.paper(n), count, seed=TABLE1_GENERATOR_SEED + n)
            for index, entailment in enumerate(batch):
                out["table1/{}/{}".format(n, index)] = entailment
    elif pool == "fold":
        wanted = _group(ids, rows=FOLD_ROWS, default=130)
        for n, count in wanted.items():
            batch = random_fold_batch(FoldParameters.paper(n), count, seed=FOLD_GENERATOR_SEED + n)
            for index, entailment in enumerate(batch):
                out["fold/{}/{}".format(n, index)] = entailment
    elif pool == "vc":
        for program, vcs in vcs_by_program().items():
            for index, vc in enumerate(vcs):
                for factor in CLONE_FACTORS:
                    out["vc/{}/{}/{}".format(program, index, factor)] = clone_entailment(
                        vc.entailment, factor
                    )
    elif pool == "chain":
        shapes = (
            [tuple(int(part) for part in key.split("/")[1:]) for key in ids]
            if ids is not None
            else [
                (length, split, extras)
                for length in CHAIN_LENGTHS
                for split in range(1, length - 1)
                for extras in range(5)
            ]
        )
        for length, split, extras in shapes:
            key = "chain/{}/{}/{}".format(length, split, extras)
            out[key] = parse_entailment(chain_line(length, split, extras))
    else:
        raise ValueError("unknown pool {!r}".format(pool))
    if ids is not None:
        out = {key: out[key] for key in ids}
    return out


def _group(ids: Optional[Sequence[str]], rows: Sequence[int], default: int) -> Dict[int, int]:
    """Per generator row, how many entailments to draw to reach ``ids``."""
    if ids is None:
        return {n: default for n in rows}
    wanted: Dict[int, int] = {}
    for key in ids:
        _, n, index = key.split("/")
        wanted[int(n)] = max(wanted.get(int(n), 0), int(index) + 1)
    return wanted


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def load_pool(pool: str, expected: dict, ids: Optional[Sequence[str]] = None) -> Dict[str, Item]:
    """Pool members with their expected verdicts; digests are checked.

    Raises ``ValueError`` when a rebuilt member's text differs from the one
    the verdicts were recorded for.
    """
    records = {entry[0]: entry for entry in expected["pools"][pool]}
    wanted = list(records) if ids is None else list(ids)
    built = generate(pool, wanted)
    items: Dict[str, Item] = {}
    for key in wanted:
        _, line_digest, verdict, source = records[key][:4]
        entailment = built[key]
        if digest(format_entailment(entailment)) != line_digest:
            raise ValueError("input drift: {} no longer prints as recorded".format(key))
        items[key] = Item(key, entailment, verdict, source)
    return items


def alpha_renamed(entailment: Entailment, tag: str) -> Entailment:
    """The same problem under a fresh constant vocabulary (verdict-preserving)."""
    return entailment.rename(
        {
            constant: make_const("{}_{}".format(tag, constant.name))
            for constant in entailment.constants()
            if not constant.is_nil
        }
    )


def _quotas(groups: Dict[object, list], total: int) -> Dict[object, int]:
    """``total`` split over the groups in proportion to their sizes (largest
    remainder), so every seed takes the same number from each group."""
    size = sum(len(members) for members in groups.values())
    if total > size:
        raise ValueError("pool of {} too small for {} inputs".format(size, total))
    order = sorted(groups, key=str)
    exact = {group: total * len(groups[group]) / size for group in order}
    quota = {group: int(exact[group]) for group in order}
    by_remainder = sorted(order, key=lambda group: (quota[group] - exact[group], str(group)))
    for group in by_remainder[: total - sum(quota.values())]:
        quota[group] += 1
    return quota


def stratified_sample(
    rng: random.Random, groups: Dict[object, List[str]], total: int
) -> List[str]:
    """``total`` ids drawn from every group in proportion to its size, shuffled.

    Only which members of each group, and their order, vary with the seed.
    """
    quota = _quotas(groups, total)
    picked = [
        key for group in sorted(groups, key=str) for key in rng.sample(groups[group], quota[group])
    ]
    rng.shuffle(picked)
    return picked


def cost_sample(rng: random.Random, expected: dict, pool: str, total: int) -> List[str]:
    """``total`` ids of ``pool``, in proportion to each row's size, shuffled.

    Within a row the members are ranked by the clauses the default engine
    generated on them when ``expected.json`` was built, and the sample takes
    every ``step``-th rank from a seeded offset (a systematic sample).  Every
    seed's inputs thus have the row's cost profile at every quantile, down to
    its few costliest members, which set a run's p99; the seed only chooses
    among members of neighbouring cost, and the order.
    """
    rows: Dict[str, List[list]] = {}
    for entry in expected["pools"][pool]:
        rows.setdefault("/".join(entry[0].split("/")[:2]), []).append(entry)
    picked = []
    for row, count in sorted(_quotas(rows, total).items()):
        if not count:
            continue
        ranked = sorted(rows[row], key=lambda entry: (-entry[4], entry[0]))
        step = len(ranked) / count
        offset = rng.random() * step
        picked.extend(ranked[min(int(offset + k * step), len(ranked) - 1)][0] for k in range(count))
    rng.shuffle(picked)
    return picked


def pool_groups(expected: dict, pool: str) -> Dict[str, List[str]]:
    """Pool ids grouped by row (``table1/12``, ``fold/20``...), in file order."""
    groups: Dict[str, List[str]] = {}
    for entry in expected["pools"][pool]:
        key = "/".join(entry[0].split("/")[:2])
        groups.setdefault(key, []).append(entry[0])
    return groups


def vc_by_procedure(expected: dict) -> Dict[Tuple[str, int], List[str]]:
    """VC ids per ``(procedure, clone factor)``, in the suite's own order."""
    table: Dict[Tuple[str, int], List[str]] = {}
    for entry in expected["pools"]["vc"]:
        _, program, index, factor = entry[0].split("/")
        table.setdefault((program, int(factor)), []).append(entry[0])
    for ids in table.values():
        ids.sort(key=lambda key: int(key.split("/")[2]))
    return table
