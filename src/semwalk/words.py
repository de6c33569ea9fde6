"""Alphabets and words.

Words over a finite alphabet are the carrier of everything else in this
package.  Words are stored as index tuples so the internals never depend on
how letters are rendered; rendering uses ``a..z``.  The engine reads a word
as its key (length, letters in base g): ``Alphabet.keys_of`` parses texts
straight to keys, ``Alphabet.word_at`` renders one back, ``_read_keys``
reads many keys at once, as texts or as products of letter weights, and
``count_of_length`` bounds every enumeration of A^n.  The truncated product
that keeps only the last ``k`` letters and the suffix order are here; the
rest of the ``Word`` algebra (prefix and factor orders, longest common
suffixes, the words of length 1..n) is in ``oracles``, which the CLI does
not import.  ``_Frozen`` is the base of the package's value types:
written once, the constructor that binds its arguments to a ``_fields``
tuple and calls ``__post_init__``, and equality, hashing, ``repr`` and
refused assignment over those fields, so that no class generates methods
when it is defined.  ``_Refusal`` is the base of its error classes.
"""

from __future__ import annotations

from itertools import product as iter_product, repeat, starmap
from typing import Iterable, Iterator

LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"
# The digits of int() in bases up to 26, one per letter position.
_DIGITS = "0123456789abcdefghijklmnop"

# Guard for words_of_length: refuse to materialize more than this many words,
# or a word longer than this.
DEFAULT_ENUMERATION_LIMIT = 1 << 16


class _Refusal(ValueError):
    """Input the engine refuses: exit 1 in the CLI."""


class _BoundRefusal(_Refusal):
    """Work refused past a size bound: exit 4 in the CLI."""


class WordError(_Refusal):
    """Raised on malformed words or operations outside their domain."""


class WordLimitExceeded(WordError, _BoundRefusal):
    """An enumeration of words was refused because it exceeds its limit."""


class _Frozen:
    """An immutable value, the base of the package's value types.

    ``__init__`` binds its arguments to ``_fields`` as a signature listing
    them in order would: positionally, then by keyword, a field left out
    taking the class attribute of its name if the class has one.  It sets
    the fields through ``__dict__``, as ``cached_property`` sets its views,
    and then calls ``__post_init__``, where a subclass validates its fields
    or derives private ones.  ``==`` and ``hash`` compare the tuple of the
    fields, between objects of one class only, and ``repr`` shows them.
    Assignment is refused, and any attribute outside ``_fields`` (a view,
    an index) takes no part in ``==``, hash or ``repr``.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The value of each field, in order, or ``TypeError`` as a call to a
        function whose signature lists the fields would raise."""
        name, rest = cls.__name__, cls._fields[len(args) :]
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} positional arguments but {len(args)} were given")
        for field in kwargs:
            if field not in rest:
                how = "multiple values for argument" if field in cls._fields else "an unexpected keyword argument"
                raise TypeError(f"{name}() got {how} {field!r}")
        missing = [field for field in rest if field not in kwargs and not hasattr(cls, field)]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return [*args, *(kwargs.get(field, getattr(cls, field, None)) for field in rest)]

    def __post_init__(self) -> None:
        """Check the fields, or derive private attributes from them: a
        subclass's hook, which the base leaves empty."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Frozen):
    """An ordered alphabet of distinct letters, rendered ``a, b, c, ...``."""

    _fields = ("letters",)

    def __post_init__(self) -> None:
        if not (1 <= len(self.letters) <= len(LETTER_POOL)):
            raise WordError(f"alphabet size must be in 1..{len(LETTER_POOL)}")
        if len(set(self.letters)) != len(self.letters):
            raise WordError(f"alphabet letters must be distinct: {self.letters!r}")
        try:
            self.letters.encode()
        except UnicodeEncodeError:  # a lone surrogate: valid JSON, but no output can encode it
            raise WordError(f"alphabet letters must not be surrogate code points: {self.letters!r}") from None
        self.__dict__["_digits"] = str.maketrans(self.letters, _DIGITS[: len(self.letters)])

    @classmethod
    def of_size(cls, g: int) -> "Alphabet":
        if not (1 <= g <= len(LETTER_POOL)):
            raise WordError(f"alphabet size must be in 1..{len(LETTER_POOL)}, got {g}")
        return cls(LETTER_POOL[:g])

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise WordError(f"letter {letter!r} not in alphabet {self.letters!r}") from None

    def word(self, text: str) -> "Word":
        """Parse a rendered word; the empty string parses to epsilon."""
        return Word(self, tuple(self.index(c) for c in text))

    def keys_of(self, texts: list[str]) -> list[tuple[int, int]]:
        """The key (length, letters read in base g) of each rendered word, as
        ``word`` parses and raises, without building the words: the letters
        are checked by one ``strip``, and translated and read by ``int``
        through C-level iterators."""
        if "".join(texts).strip(self.letters):
            for text in texts:
                self.word(text)  # raises at the first character that is not a letter
        try:
            digits = map(str.translate, texts, repeat(self._digits))
            return list(zip(map(len, texts), map(int, digits, repeat(self.size))))
        except ValueError:  # int() has no base 1, no empty string, no digit string past the str->int limit
            return [self.word(text).key for text in texts]

    def word_at(self, length: int, x: int) -> "Word":
        """The word with key (length, x), the inverse of ``Word.key``."""
        indices = []
        for _ in range(length):
            x, a = divmod(x, self.size)
            indices.append(a)
        return Word(self, reversed(indices))

    def __iter__(self) -> Iterator["Word"]:
        for i in range(self.size):
            yield Word(self, (i,))


def _read_keys(keys, top: int, values, op, unit, size: int = 0) -> tuple[list, list]:
    """The value of each word of ``keys``, keys (n, x) over g letters,
    under the letter map ``values`` extended to words: a word's value is
    ``op`` over its letters' values, in order, and ``unit`` for epsilon.
    The letters with ``operator.add`` and "" render texts, the inverse of
    ``Alphabet.keys_of``; integers with ``operator.mul`` and 1 give
    products of letter weights.

    Returns the values in key order, and the tables they are read off:
    ``tables[j][x]`` is the value of the word (j, x), in carrier order, for
    j up to the largest m <= ``top`` (the longest key, or more) with g^m at
    most ``size`` and the number of keys, whichever is larger (m >= 1).  A
    longer key is read m letters at a time.
    """
    g, tables, bound = len(values), [(unit,), values], max(size, len(keys))
    while len(tables) <= top and g * len(tables[-1]) <= bound:
        tables.append(list(starmap(op, iter_product(tables[-1], values))))
    m = len(tables) - 1
    step, last, out = g**m, tables[m], []
    for n, x in keys:
        if n > m:
            x, r = divmod(x, step)
            value, n = last[r], n - m
            while n > m:
                x, r = divmod(x, step)
                value, n = op(last[r], value), n - m
            out.append(op(tables[n][x], value))
        else:
            out.append(tables[n][x])
    return out, tables


class Word(_Frozen):
    """A finite word, possibly empty.  Ordered by shortlex."""

    # Field order matters: shortlex = (alphabet, length, indices).
    _fields = ("alphabet", "_sort_len", "indices")

    def __init__(self, alphabet: Alphabet, indices: Iterable[int]):
        idx = tuple(indices)
        g = alphabet.size
        if any(not (0 <= i < g) for i in idx):
            raise WordError(f"letter index out of range for alphabet {alphabet.letters!r}")
        self.__dict__.update(alphabet=alphabet, _sort_len=len(idx), indices=idx)

    # u > v and u >= v are answered by v < u and v <= u.
    def __lt__(self, other):
        return self._values() < other._values() if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self._values() <= other._values() if other.__class__ is self.__class__ else NotImplemented

    def __len__(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return "".join(self.alphabet.letters[i] for i in self.indices)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})" if self.indices else "Word(epsilon)"

    @property
    def is_empty(self) -> bool:
        return not self.indices

    @property
    def key(self) -> tuple[int, int]:
        """(length, letters read in base g), which sorts as the words do, shortlex."""
        x = 0
        for i in self.indices:
            x = x * self.alphabet.size + i
        return len(self.indices), x

    def concat(self, other: "Word") -> "Word":
        _require_same_alphabet(self, other)
        return Word(self.alphabet, self.indices + other.indices)


def _require_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise WordError("words are over different alphabets")


def truncate_suffix(u: Word, k: int) -> Word:
    """The suffix of length ``k`` of ``u``, or ``u`` itself when shorter."""
    if k < 1:
        raise WordError("truncation length k must be >= 1")
    if len(u) <= k:
        return u
    return Word(u.alphabet, u.indices[-k:])


def product(u: Word, v: Word, k: int) -> Word:
    """Concatenate and keep the last ``k`` letters.

    This is the associative product of nonempty words of length at most
    ``k``; the empty word is rejected because that semigroup has no identity.
    """
    _require_same_alphabet(u, v)
    if u.is_empty or v.is_empty:
        raise WordError("product is defined on nonempty words only")
    return truncate_suffix(u.concat(v), k)


def is_suffix(u: Word, v: Word) -> bool:
    _require_same_alphabet(u, v)
    n = len(u)
    return n <= len(v) and (n == 0 or v.indices[-n:] == u.indices)


def count_of_length(alphabet: Alphabet, length: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """The number g^length of words of the given length, refused with
    WordLimitExceeded past the limit, as an enumeration of them would be."""
    if length < 0:
        raise WordError("length must be >= 0")
    if alphabet.size > 1 and length > limit.bit_length():
        # g^length > 2^bit_length > limit; a count this large is not worth
        # computing, nor printable past a few thousand digits.
        raise WordLimitExceeded(f"refusing to enumerate {alphabet.size}^{length} words (limit {limit})")
    if length > limit:
        # Reached with one letter only: a single word, no longer than the limit.
        raise WordLimitExceeded(f"refusing to build a word of length {length} (limit {limit})")
    count = alphabet.size**length
    if count > limit:
        raise WordLimitExceeded(f"refusing to enumerate {count} words (limit {limit})")
    return count


def words_of_length(alphabet: Alphabet, length: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Word]:
    """All words of the given length in lexicographic order.

    The order is part of the public contract: matrix rows and partition
    canonical forms downstream rely on it.
    """
    count_of_length(alphabet, length, limit)
    return [Word(alphabet, idx) for idx in iter_product(range(alphabet.size), repeat=length)]
