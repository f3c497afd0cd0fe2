"""What every command shares: exit codes, the usage error, the
precision limits and their error, the profile kinds of asymptotics (the
values of its --kind), exact integer helpers (rounding a ratio of ints
to nearest among them, for BigFix and the tail suite), and the decimal
and json writers.

The command-line front end loads this module and nothing else of the
package, also for the --digits limits of its range checks, so it
imports math alone: no fractions (nor the decimal and numbers modules
fractions loads), no BigFix.  Each command's body, and its own argument
checks, live next to the code whose results it prints and import this
module for its exit code, its usage error and its json.
"""

import math

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4

# The most digits the gamma and zeta oracles give.
_MAX_DIGITS = 10000
# convergence_rows measures its rows at digits + _ROW_GUARD digits, so
# approx and table work at most at the constants' limit less _ROW_GUARD.
_ROW_GUARD = 20


# The exponent profiles of asymptotics, also the values of its --kind.
PROFILE_KINDS = ("theorem-linear-form", "theorem-qn", "corollary")


class UsageError(ValueError):
    """Invalid flag combination or value; maps to exit code 2."""


class PrecisionError(ArithmeticError):
    """Requested precision cannot be met or certified."""


# ---------------------------------------------------------------------------
# combinatorial helpers
# ---------------------------------------------------------------------------

def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    return math.factorial(n)


def binom(n: int, k: int) -> int:
    """Binomial coefficient, requiring 0 <= k <= n."""
    if k < 0 or k > n:
        raise ValueError(f"binom requires 0 <= k <= n, got n={n} k={k}")
    return math.comb(n, k)


def lcm_upto(n: int) -> int:
    """D_n = lcm(1, 2, ..., n); the empty case n = 0 gives 1."""
    if n < 0:
        raise ValueError("lcm_upto requires n >= 0")
    return math.lcm(*range(1, n + 1))


def _div_nearest(a: int, b: int) -> int:
    """Round a/b to the nearest integer, ties to even.  Requires b > 0."""
    q, r = divmod(a, b)
    r2 = 2 * r
    if r2 > b or (r2 == b and q & 1):
        q += 1
    return q


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _decimal_str(m: int) -> str:
    """str(m) for an integer m, also past Python's int->str limit."""
    if m.bit_length() < 14000:  # at most 4215 digits: inside the default limit
        return str(m)
    if m < 0:
        return "-" + _decimal_str(-m)
    k = m.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(m, 10 ** k)
    return _decimal_str(hi) + _decimal_str(lo).rjust(k, "0")


# json's escapes of the ASCII characters it does not print as they are;
# every other character outside ' '..'~' is written \uXXXX.
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
                 "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_str(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    parts = []
    for ch in s:
        if ch in _JSON_ESCAPES:
            parts.append(_JSON_ESCAPES[ch])
        elif " " <= ch <= "~":
            parts.append(ch)
        else:
            c = ord(ch)
            if c > 0xFFFF:  # a UTF-16 surrogate pair, as json writes it
                c -= 0x10000
                parts.append("\\u%04x" % (0xD800 | c >> 10))
                c = 0xDC00 | c & 0x3FF
            parts.append("\\u%04x" % c)
    return '"' + "".join(parts) + '"'


def _json_value(obj) -> str:
    t = type(obj)
    if t is str:
        return _json_str(obj)
    if t is int:
        return _decimal_str(obj)
    if t is float:
        if obj != obj:
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return repr(obj)
    if obj is None:
        return "null"
    if t is list:
        return "[" + ", ".join(map(_json_value, obj)) + "]"
    if t is dict:
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError("json keys must be str, not %s"
                                % type(key).__name__)
            items.append(_json_str(key) + ": " + _json_value(value))
        return "{" + ", ".join(items) + "}"
    raise TypeError("cannot render %s as json" % t.__name__)


def _json(obj) -> str:
    """json.dumps(obj, separators=(", ", ": ")) and a newline, byte for
    byte, without importing json: for dicts with str keys, lists, str,
    int (also past the int->str limit), float and None; any other type
    raises TypeError."""
    return _json_value(obj) + "\n"
