import hashlib
import random
from fractions import Fraction

from chernloc.fredholm import random_idempotent
from chernloc.multiform import GeneratorTable
from chernloc.sampling import (random_chain, random_form, random_homogeneous_form,
                               random_table, random_word)

# The benchmark builds its tables, forms, words and chains from these
# samplers, so a change to how any of them consumes the generator would
# change what the benchmark measures.  The digest pins the seeded draws.
SAMPLER_DIGEST = "72ca8c663c7b98c4fabc06176badd5c653f3e6aea2c78ad8f3cc7238c5a3f99f"


def _draws():
    rng = random.Random(2024)
    tables = [random_table(rng) for _ in range(22)]
    yield from (table.to_text() for table in tables)
    rng = random.Random(2025)
    for table in tables:
        for _ in range(5):
            yield " | ".join(f.canonical_str() for f in random_word(table, rng))
            yield random_homogeneous_form(table, rng).canonical_str()
            yield random_form(table, rng).canonical_str()
            yield str(random_chain(table, rng))
    table = GeneratorTable.build(6, [("y", 3, None), ("w", 2, "y")])
    for n in (1, 2, 3):
        p = random_idempotent(table, rng, n=n, scale=Fraction(1, 4))
        yield " ; ".join(e.canonical_str() for row in p.rows for e in row)


def test_seeded_draws_are_pinned():
    digest = hashlib.sha256("\n".join(_draws()).encode()).hexdigest()
    assert digest == SAMPLER_DIGEST
