"""Knowledge graph loading, validation, and text-side helpers.

A graph is built from three triple files (``head<TAB>relation<TAB>tail``,
one triple per line) and two description files (``id<TAB>name<TAB>description``,
the description column may be empty).  All ids referenced by triples must be
declared in the description files.  Construction builds the train adjacency,
an undirected neighbor map, and the membership index over train+valid+test
that filtered evaluation and false-negative masking rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import KgcError, ParseError, UnknownIdError

SPLITS = ("train", "valid", "test")
RELATION_CATEGORIES = ("1-1", "1-n", "n-1", "n-n")

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

    Indexes built at construction:

    * ``adjacency``: per-head list of ``(relation, tail)`` over the train split
    * undirected train neighbors (used for k-hop walks and text augmentation)
    * ``filter_index``: membership set over all splits, for filtered ranking

    Relation categories are computed on first use and kept.
    """

    def __init__(
        self,
        entities: Iterable[Entity],
        relations: Iterable[Relation],
        splits: dict[str, Sequence[Triple]],
        inverse_augmented: bool = False,
        load_report: Optional[dict] = None,
    ):
        self._entities = {e.id: e for e in entities}
        self._relations = {r.id: r for r in relations}
        self._splits: dict[str, tuple[Triple, ...]] = {}
        report = dict(load_report) if load_report else {}
        removed = report.get("duplicates_removed", 0)
        for split in SPLITS:
            deduped, dropped = _dedup(splits.get(split, ()))
            self._splits[split] = deduped
            removed += dropped
        self.inverse_augmented = inverse_augmented

        unknown = sorted(self._collect_unknown_ids())
        if unknown:
            shown = ", ".join(unknown[:20])
            more = f" (+{len(unknown) - 20} more)" if len(unknown) > 20 else ""
            raise UnknownIdError(f"triples reference undeclared ids: {shown}{more}")

        self._adjacency: dict[str, list[tuple[str, str]]] = {}
        self._neighbors: dict[str, set[str]] = {}
        for h, r, t in self._splits["train"]:
            self._adjacency.setdefault(h, []).append((r, t))
            self._neighbors.setdefault(h, set()).add(t)
            self._neighbors.setdefault(t, set()).add(h)

        self.filter_index: frozenset[Triple] = frozenset(
            trip for split in SPLITS for trip in self._splits[split]
        )
        self._known_tails: dict[tuple[str, str], set[str]] = {}
        for h, r, t in self.filter_index:
            self._known_tails.setdefault((h, r), set()).add(t)

        counts = {split: len(self._splits[split]) for split in SPLITS}
        seen_in: dict[Triple, int] = {}
        for split in SPLITS:
            for trip in set(self._splits[split]):
                seen_in[trip] = seen_in.get(trip, 0) + 1
        report.update(
            splits=counts,
            duplicates_removed=removed,
            cross_split_duplicates=sum(1 for n in seen_in.values() if n > 1),
            unknown_ids=0,
        )
        self.load_report = report
        self._categories: dict[str, Optional[str]] = {}

    def _collect_unknown_ids(self) -> set[str]:
        unknown: set[str] = set()
        for triples in self._splits.values():
            for h, r, t in triples:
                if h not in self._entities:
                    unknown.add(h)
                if t not in self._entities:
                    unknown.add(t)
                if r not in self._relations:
                    unknown.add(r)
        return unknown

    # -- accessors ---------------------------------------------------------

    @property
    def entities(self) -> dict[str, Entity]:
        return self._entities

    @property
    def relations(self) -> dict[str, Relation]:
        return self._relations

    @property
    def adjacency(self) -> dict[str, list[tuple[str, str]]]:
        return self._adjacency

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

    def triples(self, split: str) -> tuple[Triple, ...]:
        if split not in SPLITS:
            raise KgcError(f"unknown split: {split!r}")
        return self._splits[split]

    def neighbors(self, entity_id: str) -> frozenset[str]:
        """Undirected train-graph neighbors of an entity."""
        self.entity(entity_id)
        return frozenset(self._neighbors.get(entity_id, ()))

    def known_tails(self, head: str, relation: str) -> frozenset[str]:
        """All tails t with (head, relation, t) in any split."""
        return frozenset(self._known_tails.get((head, relation), ()))

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

    def relation_category(self, relation_id: str) -> Optional[str]:
        """``classify_relation`` of the relation, or None when it cannot be
        classified; each relation is classified once per graph."""
        if relation_id not in self._categories:
            try:
                self._categories[relation_id] = classify_relation(self, relation_id)
            except KgcError:
                self._categories[relation_id] = None
        return self._categories[relation_id]


def _dedup(triples: Iterable[Triple]) -> tuple[tuple[Triple, ...], int]:
    seen: set[Triple] = set()
    out: list[Triple] = []
    dropped = 0
    for trip in triples:
        trip = Triple(*trip)
        if trip in seen:
            dropped += 1
        else:
            seen.add(trip)
            out.append(trip)
    return tuple(out), dropped


def _read_lines(path: str) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if line:
                yield lineno, line


def _read_descriptions(path: str, kind: str) -> dict[str, tuple[str, str]]:
    rows: dict[str, tuple[str, str]] = {}
    for lineno, line in _read_lines(path):
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


def _read_triples(path: str) -> list[Triple]:
    triples: list[Triple] = []
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 3 tab-separated fields, got {len(parts)}")
        if not all(parts):
            raise ParseError(path, lineno, "empty field in triple")
        triples.append(Triple(*parts))
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
    """Return a new graph where every (h, r, t) is mirrored by (t, r', h).

    Each forward relation r gets a generated inverse relation r' whose
    description is ``"inverse "`` prepended to r's description.  Every split
    doubles in size.  Augmenting an already augmented graph is an error.
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
    splits: dict[str, list[Triple]] = {}
    for split in SPLITS:
        originals = g.triples(split)
        inverses = [Triple(t, INVERSE_ID_PREFIX + r, h) for h, r, t in originals]
        splits[split] = list(originals) + inverses
    return KnowledgeGraph(
        g.entities.values(),
        relations,
        splits,
        inverse_augmented=True,
        load_report=g.load_report,
    )


def k_hop_neighbors(g: KnowledgeGraph, entity_id: str, k: int) -> frozenset[str]:
    """Entities reachable within k undirected train-graph hops, excluding self."""
    if k < 1:
        raise KgcError(f"hop count must be >= 1, got {k}")
    g.entity(entity_id)
    seen = {entity_id}
    frontier = {entity_id}
    reached: set[str] = set()
    for _ in range(k):
        nxt: set[str] = set()
        for node in frontier:
            for neighbor in g._neighbors.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.add(neighbor)
        reached |= nxt
        if not nxt:
            break
        frontier = nxt
    return frozenset(reached)


def classify_relation(
    g: KnowledgeGraph, relation_id: str, threshold: float = CARDINALITY_THRESHOLD
) -> str:
    """Cardinality category of a relation: one of '1-1', '1-n', 'n-1', 'n-n'.

    Computed over forward train triples only; an inverse relation is
    classified by its forward counterpart.  Means at or above ``threshold``
    count as "n" on that side.
    """
    rel = g.relation(relation_id)
    if rel.is_inverse:
        assert rel.forward_id is not None
        rel = g.relation(rel.forward_id)
    heads: set[str] = set()
    tails: set[str] = set()
    count = 0
    for h, r, t in g.triples("train"):
        if r == rel.id:
            heads.add(h)
            tails.add(t)
            count += 1
    if count == 0:
        raise KgcError(f"relation {rel.id!r} has no train triples to classify")
    tails_per_head = count / len(heads)
    heads_per_tail = count / len(tails)
    head_side = "n" if heads_per_tail >= threshold else "1"
    tail_side = "n" if tails_per_head >= threshold else "1"
    return f"{head_side}-{tail_side}"


def augment_description(
    g: KnowledgeGraph,
    entity_id: str,
    exclude: Optional[str] = None,
    short_threshold: int = SHORT_DESCRIPTION_TOKENS,
) -> str:
    """Entity text for the encoder, padded with neighbor names when short.

    An empty description falls back to the entity name.  If the base text has
    fewer than ``short_threshold`` whitespace tokens, the names of the
    entity's undirected train neighbors are appended in entity-id order.
    ``exclude`` drops one neighbor (the answer entity, during training) from
    that list.
    """
    ent = g.entity(entity_id)
    base = ent.description.strip() or ent.name
    if len(base.split()) >= short_threshold:
        return base
    neighbor_ids = set(g.neighbors(entity_id))
    neighbor_ids.discard(entity_id)
    if exclude is not None:
        neighbor_ids.discard(exclude)
    if not neighbor_ids:
        return base
    names = [g.entity(n).name for n in sorted(neighbor_ids)]
    return base + " " + " ".join(names)


def is_known_triple(g: KnowledgeGraph, triple: Triple) -> bool:
    """True when the triple appears in any of the three splits."""
    return Triple(*triple) in g.filter_index
