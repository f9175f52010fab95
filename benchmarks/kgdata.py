"""Seeded dataset generators for the benchmark workloads.

Both generators return plain rows and write the five TSV files the CLI
reads; neither imports the package under test, so the oracle can rebuild
every text it needs from the same rows.

* ``sector_rows``: the 200-entity sector-map graph of the test suite
  (8 sectors of 25, 8 relations mapping a whole sector onto one target
  entity).  The seed only chooses which 14/1/2 rows of each
  (sector, relation) cell go to train/valid/test, so every seed is equally
  learnable.
* ``large_rows``: the sector backbone grown to 20000 entities.  The grown
  part varies what the ranking and text paths cost: a skewed degree
  spread with many isolated entities, hubs whose 2-hop neighborhoods are
  large, 24 relations in all four cardinality categories, and
  descriptions that are empty, short (padded with neighbor names by the
  program), medium, or longer than the 50-token limit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

SECTORS = 8
SECTOR_SIZE = 25
SECTOR_ENTITIES = SECTORS * SECTOR_SIZE
SECTOR_RELATIONS = 8

LARGE_ENTITIES = 20_000
GROWN_RELATIONS = 16
GROWN_EDGES = 4_000
HUBS_PER_SECTOR = 24
DENSE_PER_SECTOR = 12  # members joined to each other by the n-n relations
VOCABULARY = 3_000
LARGE_VALID_SHARE = 0.04
LARGE_TEST_SHARE = 0.04

CATEGORIES = ("n-1", "1-n", "1-1", "n-n")


@dataclass
class Dataset:
    """Rows of the five files: triples as (h, r, t), ids as (id, name, description)."""

    train: list[tuple[str, str, str]]
    valid: list[tuple[str, str, str]]
    test: list[tuple[str, str, str]]
    entities: list[tuple[str, str, str]]
    relations: list[tuple[str, str, str]]

    def write(self, dirpath: str) -> list[str]:
        """Write the TSVs; return their paths in CLI flag order."""
        os.makedirs(dirpath, exist_ok=True)
        paths = []
        for name in ("train", "valid", "test", "entities", "relations"):
            path = os.path.join(dirpath, f"{name}.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join("\t".join(row) + "\n" for row in getattr(self, name)))
            paths.append(path)
        return paths


def _sector_id(i: int) -> str:
    return f"n{i:03d}"


def _target(sector: int, rel: int) -> int:
    # all 64 cell targets are distinct and no relation maps into its own sector
    return (sector + 1) % SECTORS * SECTOR_SIZE + 3 * rel


def _is_target(i: int) -> bool:
    return i % SECTOR_SIZE % 3 == 0 and i % SECTOR_SIZE < 3 * SECTOR_RELATIONS


def _sector_description(i: int) -> str:
    # exactly 20 tokens, so neighbor-name padding never applies
    sector = i // SECTOR_SIZE
    return " ".join([_sector_id(i)] * 12 + [f"sector{sector}"] * 5 + ["item", "kind", "thing"])


def _sector_split(rng: np.random.Generator):
    train, valid, test = [], [], []
    for s in range(SECTORS):
        base = s * SECTOR_SIZE
        heads = [base + m for m in range(SECTOR_SIZE) if not _is_target(base + m)]
        for j in range(SECTOR_RELATIONS):
            tail = _sector_id(_target(s, j))
            cell = [(_sector_id(i), f"r{j}", tail) for i in heads]
            order = rng.permutation(len(cell))
            train.extend(cell[k] for k in order[:14])
            valid.append(cell[order[14]])
            test.extend(cell[k] for k in order[15:])
    return train, valid, test


def sector_rows(seed: int) -> Dataset:
    train, valid, test = _sector_split(np.random.default_rng([seed, 1]))
    entities = [
        (_sector_id(i), _sector_id(i), _sector_description(i)) for i in range(SECTOR_ENTITIES)
    ]
    relations = [
        (f"r{j}", f"rel {j}", f"r{j} mark{j} tag{j} cue{j}") for j in range(SECTOR_RELATIONS)
    ]
    return Dataset(train, valid, test, entities, relations)


def _words(rng: np.random.Generator, count: int, sector: int) -> list[str]:
    """Zipf-like topic words shared across sectors, salted with sector cues.

    The words come out sorted, so two descriptions with the same words are
    the same text: the encoder sums token rows in text order, and reordered
    copies of one bag would score a rounding step apart instead of tying.
    """
    picks = np.minimum(rng.zipf(1.3, size=count), VOCABULARY) - 1
    words = [f"w{p}" for p in picks.tolist()]
    for pos in rng.choice(count, size=max(1, count // 6), replace=False).tolist():
        words[pos] = f"sector{sector}"
    return sorted(words)


def _grown_description(rng: np.random.Generator, sector: int) -> str:
    kind = rng.random()
    if kind < 0.10:
        return ""  # falls back to the entity name
    if kind < 0.55:
        count = int(rng.integers(2, 13))  # short: padded with neighbor names
    elif kind < 0.85:
        count = int(rng.integers(20, 46))  # under the token limit
    else:
        count = int(rng.integers(55, 91))  # truncated at the token limit
    return " ".join(_words(rng, count, sector))


def large_rows(seed: int) -> Dataset:
    """The sector backbone grown to ``LARGE_ENTITIES`` entities."""
    rng = np.random.default_rng([seed, 2])
    backbone = sector_rows(seed)
    grown = LARGE_ENTITIES - SECTOR_ENTITIES
    sector_of = rng.integers(0, SECTORS, size=grown)
    ids = [f"e{i:05d}" for i in range(grown)]
    entities = list(backbone.entities)
    for i, ident in enumerate(ids):
        entities.append((ident, f"ent{i}", _grown_description(rng, int(sector_of[i]))))

    members = [np.flatnonzero(sector_of == s) for s in range(SECTORS)]
    hubs = [m[:HUBS_PER_SECTOR] for m in members]
    dense = [m[HUBS_PER_SECTOR : HUBS_PER_SECTOR + DENSE_PER_SECTOR] for m in members]
    hub_weights = 1.0 / np.arange(1, HUBS_PER_SECTOR + 1)
    hub_weights /= hub_weights.sum()

    relations = list(backbone.relations)
    categories = []
    for j in range(GROWN_RELATIONS):
        category = CATEGORIES[j % len(CATEGORIES)]
        categories.append(category)
        words = " ".join(f"w{int(w)}" for w in rng.integers(0, VOCABULARY, size=int(rng.integers(1, 7))))
        relations.append((f"g{j}", f"grown {j}", f"g{j} {category} {words}".strip()))

    edges: set[tuple[str, str, str]] = set()
    used_one_to_one: set[tuple[int, int]] = set()
    while len(edges) < GROWN_EDGES:
        j = int(rng.integers(GROWN_RELATIONS))
        s = int(rng.integers(SECTORS))
        pool = members[s]
        category = categories[j]
        if category == "n-1":
            h, t = rng.choice(pool), rng.choice(hubs[s], p=hub_weights)
        elif category == "1-n":
            h, t = rng.choice(hubs[s], p=hub_weights), rng.choice(pool)
        elif category == "1-1":
            h, t = rng.choice(pool, size=2, replace=False)
            if (j, int(h)) in used_one_to_one or (j, -int(t) - 1) in used_one_to_one:
                continue
            used_one_to_one.update(((j, int(h)), (j, -int(t) - 1)))
        else:
            h, t = rng.choice(dense[s], size=2)
        if h != t:
            edges.add((ids[int(h)], f"g{j}", ids[int(t)]))

    rows = sorted(edges)
    order = rng.permutation(len(rows))
    n_valid = int(len(rows) * LARGE_VALID_SHARE)
    n_test = int(len(rows) * LARGE_TEST_SHARE)
    valid = [rows[k] for k in order[:n_valid]]
    test = [rows[k] for k in order[n_valid : n_valid + n_test]]
    train = [rows[k] for k in order[n_valid + n_test :]]
    return Dataset(
        backbone.train + train,
        backbone.valid + valid,
        backbone.test + test,
        entities,
        relations,
    )
