"""Independent reference for everything the benchmark checks.

The oracle works from the generated rows and the checkpoint's two tables
only; it imports nothing from the package under test.  It rebuilds the
encoder text of each entity (description, or the name when empty, padded
with the sorted names of its train neighbors when shorter than 20 tokens),
hashes tokens with its own FNV-1a, mean-pools and L2-normalizes.  Ranks are
computed by sorting the filtered scores and averaging the positions of
every score equal to the target's; top-k orders by score, then by id; the
re-rank boost uses its own breadth-first walk over the train triples.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1

MAX_TOKENS = 50
SHORT_TOKENS = 20
INVERSE_PREFIX = "inverse::"
INVERSE_TEXT = "inverse "


def fnv1a_64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


def filtered_rank(scores: np.ndarray, target: int, drop: Iterable[int] = ()) -> float:
    """Rank of row ``target`` after removing rows ``drop``: mean position of its score."""
    kept = np.delete(scores, [i for i in drop if i != target])
    ordered = np.sort(kept)[::-1]
    tied = np.flatnonzero(ordered == scores[target])
    return 1.0 + (tied[0] + tied[-1]) / 2.0


def top_rows(scores: np.ndarray, k: int) -> list[int]:
    """The k best rows by score; equal scores keep row order."""
    return np.lexsort((np.arange(len(scores)), -scores))[:k].tolist()


class Oracle:
    """Reference encoder, ranker and top-k over one dataset's rows.

    ``train``/``valid``/``test`` hold forward triples; inverse triples
    ``(t, "inverse::" + r, h)`` are derived here the way the program
    documents them.  ``entities`` and ``relations`` are
    ``(id, name, description)`` rows.
    """

    def __init__(
        self,
        train: Sequence[tuple[str, str, str]],
        valid: Sequence[tuple[str, str, str]],
        test: Sequence[tuple[str, str, str]],
        entities: Sequence[tuple[str, str, str]],
        relations: Sequence[tuple[str, str, str]],
        max_tokens: int = MAX_TOKENS,
    ):
        self.max_tokens = max_tokens
        self.names = {ident: name for ident, name, _ in entities}
        self.descriptions = {ident: desc for ident, _, desc in entities}
        self.ids = sorted(self.names)
        self.row_of = {ident: i for i, ident in enumerate(self.ids)}
        self.relation_text = {}
        for ident, name, desc in relations:
            text = desc if desc else name
            self.relation_text[ident] = text
            self.relation_text[INVERSE_PREFIX + ident] = INVERSE_TEXT + text
        self.neighbors: dict[str, set[str]] = {}
        for h, _, t in train:
            self.neighbors.setdefault(h, set()).add(t)
            self.neighbors.setdefault(t, set()).add(h)
        self.known: dict[tuple[str, str], set[str]] = {}
        for rows in (train, valid, test):
            for h, r, t in rows:
                self.known.setdefault((h, r), set()).add(t)
                self.known.setdefault((t, INVERSE_PREFIX + r), set()).add(h)
        self._hashes: dict[str, int] = {}
        self._matrix: Optional[np.ndarray] = None
        self._tables: Optional[tuple[np.ndarray, np.ndarray]] = None

    # -- text and encoding ---------------------------------------------------

    def entity_text(self, entity_id: str) -> str:
        base = self.descriptions[entity_id].strip() or self.names[entity_id]
        if len(base.split()) >= SHORT_TOKENS:
            return base
        others = sorted(self.neighbors.get(entity_id, set()) - {entity_id})
        if not others:
            return base
        return base + " " + " ".join(self.names[n] for n in others)

    def tokens(self, text: str, buckets: int) -> list[int]:
        out = []
        for word in text.lower().split()[: self.max_tokens]:
            h = self._hashes.get(word)
            if h is None:
                h = self._hashes[word] = fnv1a_64(word.encode("utf-8"))
            out.append(h % (buckets - 1))
        return out

    @staticmethod
    def encode(table: np.ndarray, tokens: Sequence[int]) -> np.ndarray:
        fallback = np.zeros(table.shape[1])
        fallback[0] = 1.0
        if not tokens:
            return fallback
        mean = table[np.asarray(tokens)].mean(axis=0)
        norm = np.sqrt(np.sum(mean * mean))
        return fallback if norm == 0.0 else mean / norm

    def use_tables(self, hr_table: np.ndarray, tail_table: np.ndarray) -> None:
        self._tables = (hr_table, tail_table)
        buckets = tail_table.shape[0]
        self._matrix = np.stack(
            [self.encode(tail_table, self.tokens(self.entity_text(e), buckets)) for e in self.ids]
        )

    @property
    def matrix(self) -> np.ndarray:
        """Entity vectors in sorted-id order; ``use_tables`` must come first."""
        assert self._matrix is not None
        return self._matrix

    def query(self, head: str, relation: str) -> np.ndarray:
        assert self._tables is not None
        hr_table = self._tables[0]
        buckets = hr_table.shape[0]
        combined = (
            self.tokens(self.entity_text(head), buckets)
            + [buckets - 1]
            + self.tokens(self.relation_text[relation], buckets)
        )
        return self.encode(hr_table, combined[: self.max_tokens])

    # -- graph walks and scores ----------------------------------------------

    def k_hop(self, entity_id: str, hops: int) -> set[str]:
        depth = {entity_id: 0}
        queue = deque([entity_id])
        while queue:
            node = queue.popleft()
            if depth[node] == hops:
                continue
            for nxt in sorted(self.neighbors.get(node, ())):
                if nxt not in depth:
                    depth[nxt] = depth[node] + 1
                    queue.append(nxt)
        return set(depth) - {entity_id}

    def scores(self, head: str, relation: str, alpha: float = 0.0, hops: int = 2) -> np.ndarray:
        # row-wise sums keep identical rows at identical scores
        out = (self.matrix * self.query(head, relation)).sum(axis=1)
        if alpha:
            for e in self.k_hop(head, hops):
                out[self.row_of[e]] += alpha
        return out

    def rank(self, triple: tuple[str, str, str], alpha: float = 0.0, hops: int = 2) -> float:
        h, r, t = triple
        drop = [self.row_of[e] for e in self.known.get((h, r), ())]
        return filtered_rank(self.scores(h, r, alpha, hops), self.row_of[t], drop)

    def topk(
        self, head: str, relation: str, k: int, alpha: float = 0.0, hops: int = 2
    ) -> list[tuple[str, float, bool]]:
        scores = self.scores(head, relation, alpha, hops)
        order = top_rows(scores, k)  # rows are in id order, so ties break by id
        known = self.known.get((head, relation), set())
        return [(self.ids[i], float(scores[i]), self.ids[i] in known) for i in order]

    def eval_triples(self, rows: Iterable[tuple[str, str, str]]) -> list[tuple[str, str, str]]:
        """Forward rows followed by their inverses, the program's evaluation order."""
        rows = list(rows)
        return rows + [(t, INVERSE_PREFIX + r, h) for h, r, t in rows]
