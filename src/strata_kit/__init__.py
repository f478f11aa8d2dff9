"""strata-kit: exact tame local-field calculus with a matrix-lattice oracle.

Modules:

- ``errors``     — the three error families behind the CLI exit codes
- ``residue``    — finite-field coefficient arithmetic
- ``tower``      — tame tower fields, elements, embeddings, subfields
- ``minimal``    — minimality / genericity tests and chunk factorization
- ``strata``     — stratum and filtration-index calculus, group presentations
- ``translate``  — bidirectional datum-skeleton translation
- ``oracle``     — brute-force matrix/lattice verification layer
- ``serialize``  — ``strata-kit/v1`` JSON documents in and out
- ``fuzz``       — seeded random towers, elements and strata
- ``cli``        — JSON command-line front end
"""

__version__ = "0.1.0"
