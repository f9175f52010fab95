"""Knowledge graph loading, validation, and text-side helpers.

A graph is built from three triple files (``head<TAB>relation<TAB>tail``,
one triple per line) and two description files (``id<TAB>name<TAB>description``,
the description column may be empty).  All ids referenced by triples must be
declared in the description files.  The graph numbers its entities and
relations in sorted-id order and holds each split as one (n, 3) int64 array
of (head, relation, tail) numbers, which training, false-negative masking
and filtered ranking read.  The text helpers and the k-hop walk take entity
numbers too, so id strings appear only at the edges: file loading, an id
numbered where it enters (``entity_numbers``, ``relation_numbers``,
``triple_numbers``), ``triples``, predictions and the load report.  An
undeclared id raises ``UnknownIdError`` where it is numbered, so ranking a
triple or predicting for a query that holds one fails with its name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import KgcError, ParseError, UnknownIdError
from .files import read_lines

SPLITS = ("train", "valid", "test")
RELATION_CATEGORIES = ("1-1", "1-n", "n-1", "n-n")
UNKNOWN_CATEGORY = "unknown"  # a relation with no train triples to classify
CATEGORIES = RELATION_CATEGORIES + (UNKNOWN_CATEGORY,)  # what ``KnowledgeGraph.categories`` indexes

# Relation cardinality boundary: mean tails-per-head (or heads-per-tail)
# at or above this counts as "n".
CARDINALITY_THRESHOLD = 1.5

# Descriptions shorter than this many whitespace tokens get neighbor names
# appended by augment_description.
SHORT_DESCRIPTION_TOKENS = 20

INVERSE_ID_PREFIX = "inverse::"
INVERSE_DESCRIPTION_PREFIX = "inverse "


@dataclass(frozen=True)
class Entity:
    id: str
    name: str
    description: str = ""


@dataclass(frozen=True)
class Relation:
    id: str
    description: str
    is_inverse: bool = False
    forward_id: Optional[str] = None


class Triple(NamedTuple):
    head: str
    relation: str
    tail: str


class KnowledgeGraph:
    """Immutable container for entities, relations, and split triples.

    Arrays built at construction, over the E entity and R relation numbers:

    * each split's (head, relation, tail) rows, each triple once, first
      occurrences in input order (``split_array``)
    * ``entities_by_number``, each number's ``Entity``, and
      ``relation_texts``, each relation number's encoder text
    * the undirected train adjacency (for k-hop walks and text
      augmentation), built as one sorted int64 array of edge keys
      ``h * E + t`` in both directions and kept as each h's run of t
      (``neighbor_numbers``)
    * the known triples of all splits, as one sorted int64 array of keys
      ``(h * R + r) * E + t``; ``known`` and ``known_tails`` answer from it
    * ``is_inverse``, a bool per relation, and ``categories``, each
      relation's index into ``CATEGORIES`` (see ``classify_relation``),
      classified once from the train array; a relation with no train
      triples is ``UNKNOWN_CATEGORY``
    """

    def __init__(
        self,
        entities: Iterable[Entity],
        relations: Iterable[Relation],
        splits: dict[str, Sequence[Sequence[str]]],
    ):
        self._declare(entities, relations, augmented=False)
        try:
            numbered = [self.triple_numbers(splits.get(split, ())) for split in SPLITS]
        except UnknownIdError:
            every = [trip for split in SPLITS for trip in splits.get(split, ())]
            unknown = sorted(
                (({h for h, _, _ in every} | {t for _, _, t in every}) - self._entities.keys())
                | ({r for _, r, _ in every} - self._relations.keys())
            )
            shown = ", ".join(unknown[:20])
            more = f" (+{len(unknown) - 20} more)" if len(unknown) > 20 else ""
            raise UnknownIdError(f"triples reference undeclared ids: {shown}{more}") from None
        self._build(numbered, load_report=None)

    def _declare(self, entities: Iterable[Entity], relations: Iterable[Relation], augmented: bool) -> None:
        self._entities = {e.id: e for e in entities}
        self._relations = {r.id: r for r in relations}
        self.inverse_augmented = augmented
        self.entity_ids = tuple(sorted(self._entities))
        self.relation_ids = tuple(sorted(self._relations))
        self._entity_number = {e: i for i, e in enumerate(self.entity_ids)}
        self._relation_number = {r: i for i, r in enumerate(self.relation_ids)}
        self.entities_by_number = tuple(self._entities[e] for e in self.entity_ids)
        self.relation_texts = tuple(self._relations[r].description for r in self.relation_ids)

    def _build(self, numbered: Sequence[np.ndarray], load_report: Optional[dict]) -> None:
        """Every array of the graph, from one (n, 3) number array per split."""
        E, R = len(self.entity_ids), len(self.relation_ids)
        report = dict(load_report) if load_report else {}
        removed = report.get("duplicates_removed", 0)
        self._splits: dict[str, np.ndarray] = {}
        split_keys = []
        for split, rows in zip(SPLITS, numbered):
            keys = (rows[:, 0] * R + rows[:, 1]) * E + rows[:, 2]
            first = np.sort(np.unique(keys, return_index=True)[1])  # first occurrences, in input order
            self._splits[split] = rows[first]
            self._splits[split].setflags(write=False)  # split_array hands it out
            removed += len(rows) - first.size
            split_keys.append(keys[first])
        # a split holds each triple once, so a key counted more than once is
        # a triple that sits in more than one split
        self._triple_keys, seen_in = np.unique(np.concatenate(split_keys), return_counts=True)

        heads, relations, tails = self._splits["train"].T
        edges = np.unique(np.concatenate([heads * E + tails, tails * E + heads]))
        self._adjacency_starts = edges.searchsorted(np.arange(E + 1) * E)
        self._adjacency = edges % E  # kept as numbers: a per-call subtraction costs more than the slice
        self._adjacency.setflags(write=False)  # neighbor_numbers hands out views

        # each relation classified by its own train triples: "n" on a side
        # when the triples per distinct entity of the other side reach the
        # threshold, and 2 * head + tail indexes RELATION_CATEGORIES
        count = np.bincount(relations, minlength=R)
        distinct_heads = np.bincount(np.unique(relations * E + heads) // E, minlength=R)
        distinct_tails = np.bincount(np.unique(relations * E + tails) // E, minlength=R)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where a relation has no triple
            head_n = count / distinct_tails >= CARDINALITY_THRESHOLD
            tail_n = count / distinct_heads >= CARDINALITY_THRESHOLD
        unknown = CATEGORIES.index(UNKNOWN_CATEGORY)
        own = np.append(np.where(count > 0, 2 * head_n + tail_n, unknown), unknown)
        # an inverse relation takes its forward relation's category; one
        # whose forward relation is not declared reads the unknown at -1
        declared = [self._relations[r] for r in self.relation_ids]
        self.is_inverse = np.array([rel.is_inverse for rel in declared], dtype=bool)
        number = self._relation_number
        forward = [number.get(rel.forward_id, -1) if rel.is_inverse else n for n, rel in enumerate(declared)]
        self.categories = own[np.array(forward, dtype=np.int64)]

        report.update(
            splits={split: len(self._splits[split]) for split in SPLITS},
            duplicates_removed=removed,
            cross_split_duplicates=int(np.count_nonzero(seen_in > 1)),
            unknown_ids=0,
        )
        self.load_report = report

    # -- accessors ---------------------------------------------------------

    @property
    def entities(self) -> dict[str, Entity]:
        return self._entities

    @property
    def relations(self) -> dict[str, Relation]:
        return self._relations

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise UnknownIdError(f"unknown entity id: {entity_id!r}") from None

    def relation(self, relation_id: str) -> Relation:
        try:
            return self._relations[relation_id]
        except KeyError:
            raise UnknownIdError(f"unknown relation id: {relation_id!r}") from None

    def split_array(self, split: str) -> np.ndarray:
        """The split's (n, 3) read-only array of (head, relation, tail) numbers."""
        if split not in SPLITS:
            raise KgcError(f"unknown split: {split!r}")
        return self._splits[split]

    def triples(self, split: str) -> tuple[Triple, ...]:
        """The split's triples as ids, in ``split_array`` order; built on each call."""
        ids, relation_ids = self.entity_ids, self.relation_ids
        return tuple(Triple(ids[h], relation_ids[r], ids[t]) for h, r, t in self.split_array(split).tolist())

    def neighbor_numbers(self, entity: int) -> np.ndarray:
        """The numbers of entity number ``entity``'s undirected train-graph
        neighbors, increasing; the entity itself is one only through a
        reflexive train triple."""
        self._check_entity_number(entity)
        return self._adjacency[self._adjacency_starts[entity] : self._adjacency_starts[entity + 1]]

    def _check_entity_number(self, entity: int) -> None:
        """Raise ``KgcError`` unless ``entity`` is in [0, E): a negative
        number would otherwise index from the end."""
        if not 0 <= entity < len(self.entity_ids):
            raise KgcError(f"entity number {entity} is out of range [0, {len(self.entity_ids)})")

    def entity_numbers(self, ids: Sequence[str]) -> np.ndarray:
        """Each entity's position in sorted-id order; an undeclared id raises
        ``UnknownIdError``, as in ``entity``."""
        return _numbers(self._entity_number, ids, "entity")

    def relation_numbers(self, ids: Sequence[str]) -> np.ndarray:
        """Each relation's position in sorted-id order; an undeclared id raises
        ``UnknownIdError``, as in ``relation``."""
        return _numbers(self._relation_number, ids, "relation")

    def triple_numbers(self, triples: Sequence[Sequence[str]]) -> np.ndarray:
        """(n, 3) int64 (head, relation, tail) numbers of id triples; an
        undeclared id raises ``UnknownIdError``, as in ``entity``."""
        heads, relations, tails = zip(*triples) if len(triples) else ((), (), ())
        return np.stack(
            [self.entity_numbers(heads), self.relation_numbers(relations), self.entity_numbers(tails)], axis=1
        )

    def known(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Whether each (head, relation, tail), given as ``entity_numbers`` and
        ``relation_numbers`` arrays that broadcast together, is a triple of
        any split."""
        keys = (heads * len(self._relation_number) + relations) * len(self._entity_number) + tails
        if not self._triple_keys.size:
            return np.zeros(np.shape(keys), dtype=bool)
        return self._triple_keys.take(self._triple_keys.searchsorted(keys), mode="clip") == keys

    def known_tails(self, heads: np.ndarray, relations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query rows, tail numbers) of every t with (heads[i], relations[i], t)
        in any split, given ``entity_numbers`` and ``relation_numbers``: query by
        query, tails increasing."""
        keys, E = self._triple_keys, len(self._entity_number)
        first = (heads * len(self._relation_number) + relations) * E  # each query's key block
        starts = keys.searchsorted(first)
        counts = keys.searchsorted(first + E) - starts
        rows = np.repeat(np.arange(counts.size), counts)
        # output position j of query i reads key starts[i] + (j - offset of query i)
        at = np.arange(rows.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return rows, keys[at] - first[rows]

    def inverse_of(self, relation_id: str) -> str:
        """Id of the relation pointing the opposite way.

        For a forward relation this is its generated inverse; for an inverse
        relation it is the original forward id.  Requires an
        inverse-augmented graph.
        """
        rel = self.relation(relation_id)
        if rel.is_inverse:
            assert rel.forward_id is not None
            return rel.forward_id
        inverse_id = INVERSE_ID_PREFIX + relation_id
        if inverse_id not in self._relations:
            raise KgcError(f"graph has no inverse for relation {relation_id!r}; augment it first")
        return inverse_id


def _numbers(number: dict[str, int], ids: Sequence[str], kind: str) -> np.ndarray:
    try:
        return np.array([number[i] for i in ids], dtype=np.int64)
    except KeyError as e:
        raise UnknownIdError(f"unknown {kind} id: {e.args[0]!r}") from None


def _read_descriptions(path: str, kind: str) -> dict[str, tuple[str, str]]:
    rows: dict[str, tuple[str, str]] = {}
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            ident, name = parts
            description = ""
        elif len(parts) == 3:
            ident, name, description = parts
        else:
            raise ParseError(path, lineno, f"expected 2 or 3 tab-separated fields, got {len(parts)}")
        if not ident:
            raise ParseError(path, lineno, f"empty {kind} id")
        if not name:
            raise ParseError(path, lineno, f"empty name for {kind} {ident!r}")
        if ident in rows:
            raise ParseError(path, lineno, f"duplicate {kind} id {ident!r}")
        rows[ident] = (name, description)
    return rows


def _read_triples(path: str) -> list[list[str]]:
    triples: list[list[str]] = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 3 tab-separated fields, got {len(parts)}")
        if not all(parts):
            raise ParseError(path, lineno, "empty field in triple")
        triples.append(parts)
    return triples


def load_graph(
    train_path: str,
    valid_path: str,
    test_path: str,
    entity_desc_path: str,
    relation_desc_path: str,
) -> KnowledgeGraph:
    """Parse and validate the five dataset files into a KnowledgeGraph.

    Within-split duplicate triples are dropped silently and counted in
    ``load_report``; triples referencing undeclared ids raise
    :class:`UnknownIdError` listing the offenders.
    """
    entity_rows = _read_descriptions(entity_desc_path, "entity")
    relation_rows = _read_descriptions(relation_desc_path, "relation")

    entities = [Entity(ident, name, desc) for ident, (name, desc) in entity_rows.items()]
    # A relation with an empty description column falls back to its name,
    # which is the text the encoder will see.
    relations = [
        Relation(ident, desc if desc else name) for ident, (name, desc) in relation_rows.items()
    ]

    splits = {
        "train": _read_triples(train_path),
        "valid": _read_triples(valid_path),
        "test": _read_triples(test_path),
    }
    return KnowledgeGraph(entities, relations, splits)


def add_inverse_triples(g: KnowledgeGraph) -> KnowledgeGraph:
    """Return a new graph where every (h, r, t) is mirrored by (t, r', h),
    so head prediction runs as tail prediction of the inverse triple.

    Each forward relation r gets a generated inverse relation r' with id
    ``inverse::r`` and description ``"inverse "`` prepended to r's
    description.  Every split array doubles in size, mirrored in number
    form (no id is numbered again).  Augmenting an already augmented graph
    is an error.
    """
    if g.inverse_augmented:
        raise KgcError("graph is already inverse-augmented")
    relations = list(g.relations.values())
    for rel in g.relations.values():
        inverse_id = INVERSE_ID_PREFIX + rel.id
        if inverse_id in g.relations:
            raise KgcError(f"relation id {inverse_id!r} already exists; cannot augment")
        relations.append(
            Relation(
                inverse_id,
                INVERSE_DESCRIPTION_PREFIX + rel.description,
                is_inverse=True,
                forward_id=rel.id,
            )
        )
    aug = KnowledgeGraph.__new__(KnowledgeGraph)
    aug._declare(g.entities.values(), relations, augmented=True)
    # the entity numbering is the same; the relation numbering is the sorted
    # order of the augmented relation ids
    forward = aug.relation_numbers(g.relation_ids)
    inverse = aug.relation_numbers([INVERSE_ID_PREFIX + r for r in g.relation_ids])
    mirrored = []
    for split in SPLITS:
        heads, numbers, tails = g.split_array(split).T
        mirrored.append(np.concatenate([
            np.stack([heads, forward[numbers], tails], axis=1),
            np.stack([tails, inverse[numbers], heads], axis=1),
        ]))
    aug._build(mirrored, g.load_report)
    return aug


def k_hop_neighbors(g: KnowledgeGraph, entity: int, k: int) -> np.ndarray:
    """The numbers of the entities within k undirected train-graph hops of
    entity number ``entity``, excluding itself, increasing.

    ``predict_topk``'s walk for its one head.  It stays a set walk: a
    one-row ``k_hop_mask`` plus ``np.flatnonzero`` took 41-42 us per head
    against 13-14 us for this walk (the 576 test heads of the benchmark's
    20000-entity graph, 3 runs on a 2-core x86-64 VM).  Evaluation walks a
    whole chunk of heads at once with ``k_hop_mask``.
    """
    if k < 1:
        raise KgcError(f"hop count must be >= 1, got {k}")
    seen, frontier = {entity}, {entity}
    for _ in range(k):
        frontier = {m for n in frontier for m in g.neighbor_numbers(n).tolist()} - seen
        if not frontier:
            break
        seen |= frontier
    seen.discard(entity)
    return np.array(sorted(seen), dtype=np.int64)


def k_hop_mask(g: KnowledgeGraph, entities: np.ndarray, k: int) -> np.ndarray:
    """(len(entities), E) bool mask whose row i marks ``k_hop_neighbors(g,
    entities[i], k)``.

    Every row walks at once: each hop gathers the adjacency runs of the
    whole frontier, held as flat ``row * E + entity`` keys, and keeps the
    keys the mask has not marked yet, so no pass reads the whole mask.
    """
    if k < 1:
        raise KgcError(f"hop count must be >= 1, got {k}")
    if len(entities):
        g._check_entity_number(int(entities.min()))
        g._check_entity_number(int(entities.max()))
    E = len(g.entity_ids)
    mask = np.zeros((len(entities), E), dtype=bool)
    marked = mask.reshape(-1)  # a view: marking a key marks the mask
    own = np.arange(len(entities)) * E + entities  # each row's start
    marked[own] = True
    frontier = own
    starts = g._adjacency_starts
    for _ in range(k):
        # a key reached along two paths is walked once (a sort, not
        # ``np.unique``, which is 10x slower on these sizes); the last hop's
        # keys are only marked, so they are never deduplicated
        keys = np.sort(frontier)
        rows, nodes = np.divmod(keys[np.diff(keys, prepend=-1) != 0], E)
        counts = starts[nodes + 1] - starts[nodes]
        # the same run gather as ``known_tails``: output j of key i reads
        # adjacency starts[nodes[i]] + (j - offset of key i)
        at = np.arange(counts.sum()) + np.repeat(starts[nodes] - (np.cumsum(counts) - counts), counts)
        reached = np.repeat(rows * E, counts) + g._adjacency[at]
        frontier = reached[~marked[reached]]
        if not frontier.size:
            break
        marked[frontier] = True
    marked[own] = False
    return mask


def classify_relation(g: KnowledgeGraph, relation_id: str) -> str:
    """Cardinality category of a relation: one of '1-1', '1-n', 'n-1', 'n-n'.

    Read from ``g.categories``, which the graph classifies once, over forward
    train triples only: an inverse relation is classified by its forward
    counterpart.  Means at or above ``CARDINALITY_THRESHOLD`` count as "n"
    on that side.  A relation with no train triples raises ``KgcError``.
    """
    category = CATEGORIES[g.categories[g.relation_numbers([relation_id])[0]]]
    if category == UNKNOWN_CATEGORY:
        raise KgcError(f"relation {relation_id!r} has no train triples to classify")
    return category


def augment_description(g: KnowledgeGraph, entity: int, exclude: Optional[int] = None) -> str:
    """Encoder text of entity number ``entity``, padded with neighbor names when short.

    An empty description falls back to the entity name.  If the base text has
    fewer than ``SHORT_DESCRIPTION_TOKENS`` whitespace tokens, the names of the
    entity's undirected train neighbors are appended in entity-id order.
    ``exclude``, an entity number, drops one neighbor (the answer entity,
    during training) from that list.
    """
    g._check_entity_number(entity)
    by_number = g.entities_by_number
    ent = by_number[entity]
    base = ent.description.strip() or ent.name
    if len(base.split()) >= SHORT_DESCRIPTION_TOKENS:
        return base
    names = [by_number[n].name for n in g.neighbor_numbers(entity).tolist() if n != entity and n != exclude]
    return " ".join([base, *names])
