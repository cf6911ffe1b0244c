"""Rebuild ``expected.json``: the benchmark's input pools and their verdicts.

Usage (from the repository root)::

    python3 perfbench/make_expected.py

For every candidate the generators offer (see ``inputs.py``) this records the
verdict of a source independent of the default engine: the Smallfoot-style
baseline when it decides within ``SMALLFOOT_STEPS`` search steps, else
``ProverConfig.reference()`` (the symbolic naive loop).  The default engine is
run too, only to choose members: ``table1`` and ``fold`` keep the first
candidates per row that it decides generating at most ``CAP_CLAUSES``
clauses, so that no benchmark operation fails and one outlier cannot dominate
a run.  A disagreement between the default engine and the independent source
aborts.  Both budgets count work, not time, so the file comes out the same on
any host.

The ``vc`` and ``chain`` members also record a digest of their canonical key
(empty when canonicalisation refuses the entailment as too symmetric), which
the ``serve`` workload uses to pick problems the server has never seen; the
``table1`` and ``fold`` members record the clauses the default engine
generated, which sampling uses to keep the share of expensive inputs fixed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.baselines.smallfoot import SmallfootProver  # noqa: E402
from repro.core.config import ProverConfig  # noqa: E402
from repro.core.prover import Prover  # noqa: E402
from repro.logic.canonical import TooSymmetricError, canonicalize  # noqa: E402
from repro.logic.printer import format_entailment  # noqa: E402
from repro.superposition.saturation import SaturationLimitError  # noqa: E402

import inputs  # noqa: E402

KEEP = {"table1": 400, "fold": 90}
POOLS = ("table1", "fold", "vc", "chain")
#: Search steps the Smallfoot-style baseline gets before the reference engine
#: answers (about a second on the reference host).
SMALLFOOT_STEPS = 50_000
#: table1/fold candidates for which the default engine generates more clauses
#: are dropped (0.25 s of saturation on the reference host).
CAP_CLAUSES = 7_000


def decide(entailment, smallfoot, reference):
    answer = smallfoot.prove(entailment)
    if answer.verdict.value in ("valid", "invalid"):
        return answer.verdict.value, "smallfoot"
    result = reference.prove(entailment)
    return ("valid" if result.is_valid else "invalid"), "reference"


def canonical_digest(entailment) -> str:
    try:
        return inputs.digest(repr(canonicalize(entailment).key))
    except TooSymmetricError:
        return ""


def build_pool(pool, smallfoot, reference, default, capped):
    candidates = inputs.generate(pool)
    kept_per_row = {}
    entries = []
    for key, entailment in candidates.items():
        row = "/".join(key.split("/")[:2])
        if pool in KEEP and kept_per_row.get(row, 0) >= KEEP[pool]:
            continue
        try:
            fast = (capped if pool in KEEP else default).prove(entailment)
        except SaturationLimitError:
            continue  # over CAP_CLAUSES
        except Exception as error:  # noqa: BLE001 - a failing candidate is dropped
            print("  drop {}: {}".format(key, type(error).__name__), file=sys.stderr)
            continue
        verdict, source = decide(entailment, smallfoot, reference)
        if ("valid" if fast.is_valid else "invalid") != verdict:
            raise SystemExit("engine disagreement on {}: default {} vs {} {}".format(
                key, fast.verdict, source, verdict))
        entry = [key, inputs.digest(format_entailment(entailment)), verdict, source]
        if pool in ("vc", "chain"):
            entry.append(canonical_digest(entailment))
        else:
            entry.append(fast.statistics.generated_clauses)
        entries.append(entry)
        kept_per_row[row] = kept_per_row.get(row, 0) + 1
    if pool in KEEP:
        short = {row: count for row, count in kept_per_row.items() if count < KEEP[pool]}
        if short:
            raise SystemExit("pool {} rows short of {}: {}".format(pool, KEEP[pool], short))
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=inputs.EXPECTED_PATH)
    args = parser.parse_args(argv)
    smallfoot = SmallfootProver(max_steps=SMALLFOOT_STEPS)
    reference = Prover(ProverConfig(record_proof=False).reference())
    default = Prover(ProverConfig(record_proof=False))
    capped = Prover(dataclasses.replace(ProverConfig(record_proof=False),
                                        max_saturation_clauses=CAP_CLAUSES))
    payload = {
        "sources": {
            "smallfoot": "repro.baselines.smallfoot, {} step budget".format(SMALLFOOT_STEPS),
            "reference": "ProverConfig.reference(), where smallfoot answered unknown",
        },
        "filter": "per row, the first {} table1 and {} fold members the default engine"
                  " decides generating at most {} clauses".format(
                      KEEP["table1"], KEEP["fold"], CAP_CLAUSES),
        "fields": ["id", "text sha1[:16]", "verdict", "source",
                   "vc, chain: canonical key sha1[:16]; table1, fold: generated clauses"],
        "pools": {},
    }
    for pool in POOLS:
        started = time.perf_counter()
        entries = build_pool(pool, smallfoot, reference, default, capped)
        payload["pools"][pool] = entries
        sources = {}
        for entry in entries:
            sources[entry[3]] = sources.get(entry[3], 0) + 1
        print("{}: {} members {} in {:.1f}s".format(
            pool, len(entries), sources, time.perf_counter() - started), file=sys.stderr)
    with open(args.out, "w") as handle:
        handle.write("{\n")
        for name in ("sources", "filter", "fields"):
            handle.write("  {}: {},\n".format(json.dumps(name), json.dumps(payload[name])))
        handle.write('  "pools": {\n')
        pools = [(pool, payload["pools"][pool]) for pool in POOLS]
        for position, (pool, entries) in enumerate(pools):
            handle.write("    {}: [\n".format(json.dumps(pool)))
            handle.write(",\n".join("      " + json.dumps(entry) for entry in entries))
            handle.write("\n    ]{}\n".format("," if position + 1 < len(pools) else ""))
        handle.write("  }\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
