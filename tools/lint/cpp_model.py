"""Just-enough C++ header parsing for the custom lints.

This is not a compiler front end. It strips comments and string
literals, walks brace nesting, and extracts the data members of a named
class or struct — which is exactly what the state-audit lint needs and
nothing more. Anything it cannot classify it reports as a parse error
rather than silently skipping, so the audit fails loudly when the code
outgrows the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass
class Member:
    """One data member of an audited class."""

    name: str
    line: int  # 1-based line in the original file
    text: str  # normalized declaration text


@dataclass
class ClassModel:
    name: str
    members: list = field(default_factory=list)
    nested: list = field(default_factory=list)  # nested class/struct names


# A preprocessing number: a digit that does not continue an
# identifier (u8'x' is a char literal), then digits, letters, '.' and
# digit separators.
_PP_NUMBER = re.compile(r"(?<!\w)\d(?:'?[\w.])*")


def strip_comments(text: str, keep_strings: bool = False) -> str:
    """Replace comments, and string/char literals unless keep_strings,
    with spaces.

    Numbers are copied whole, so the ' of a C++14 digit separator
    (222'000) is not read as a char-literal quote. Newlines are
    preserved so line numbers survive, which the lints use for
    reporting.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c.isdigit() and (number := _PP_NUMBER.match(text, i)):
            out.append(number.group(0))
            i = number.end()
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            literal = text[i:j]
            out.append(literal if keep_strings else
                       re.sub(r"[^\n]", " ", literal))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def find_class_body(text: str, name: str):
    """Return (start, end, open_line) spanning the body of class `name`.

    `text` must already be comment-stripped. The span excludes the
    braces themselves. Raises ValueError when the class is missing.
    """
    pattern = re.compile(r"\b(?:class|struct)\s+" + re.escape(name) +
                         r"\b([^;{]*)\{")
    m = pattern.search(text)
    if not m:
        raise ValueError(f"class {name} not found")
    start = m.end()
    depth = 1
    i = start
    while i < len(text) and depth:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    if depth:
        raise ValueError(f"class {name}: unbalanced braces")
    open_line = text.count("\n", 0, start) + 1
    return start, i - 1, open_line


_SKIP_PREFIXES = (
    "public", "private", "protected", "using", "typedef", "friend",
    "template", "static_assert", "enum",
)

_NAME_RE = re.compile(r"[A-Za-z_]\w*")


def _declarator_names(stmt: str):
    """Names declared by a member statement (already known non-function).

    Handles `T a;`, `T a = x;`, `T a{x};`, `T a, b;`, `T a[2];`.
    """
    # Cut initializers: everything from the first top-level '=' or '{'.
    depth = 0
    cut = len(stmt)
    for i, c in enumerate(stmt):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif depth == 0 and c in "={":
            cut = i
            break
    head = stmt[:cut].rstrip()
    # Multiple declarators: split on top-level commas, name is the last
    # identifier of each piece (ignoring array suffixes).
    names = []
    depth = 0
    piece = []
    pieces = []
    for c in head:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            pieces.append("".join(piece))
            piece = []
        else:
            piece.append(c)
    pieces.append("".join(piece))
    for idx, piece_text in enumerate(pieces):
        if idx > 0:
            # `T a, b` — the continuation piece is just the name.
            ids = _NAME_RE.findall(piece_text)
        else:
            ids = _NAME_RE.findall(re.sub(r"\[.*\]", "", piece_text))
        if ids:
            names.append(ids[-1])
    return names


def extract_members(text: str, name: str) -> ClassModel:
    """Extract the data members of class `name` from header text.

    Function declarations/definitions, nested types, using aliases and
    static members are skipped; everything else declared at class scope
    is a data member.
    """
    stripped = strip_comments(text)
    start, end, line0 = find_class_body(stripped, name)
    body = stripped[start:end]
    model = ClassModel(name=name)

    i = 0
    n = len(body)
    stmt_start = 0
    depth = 0
    while i < n:
        c = body[i]
        if c == "{":
            # A brace at class scope: function body, nested type body,
            # or a braced initializer. Skip to the matching brace.
            depth = 1
            j = i + 1
            while j < n and depth:
                if body[j] == "{":
                    depth += 1
                elif body[j] == "}":
                    depth -= 1
                j += 1
            prefix = body[stmt_start:i]
            nested = re.search(r"\b(?:class|struct|enum|union)\b[^=(]*$",
                               prefix)
            if nested:
                ids = _NAME_RE.findall(prefix.split("class")[-1]
                                       .split("struct")[-1])
                if ids:
                    model.nested.append(ids[0])
                # `struct S { ... } member;` declares a member too:
                # fall through with the prefix reset so the tail of the
                # statement (up to ';') is parsed as a declarator.
                tail_start = j
                k = tail_start
                while k < n and body[k] not in ";":
                    k += 1
                tail = body[tail_start:k].strip()
                if tail:
                    for member in _declarator_names("X " + tail):
                        model.members.append(Member(
                            member,
                            line0 + body.count("\n", 0, tail_start),
                            tail))
                i = k + 1
                stmt_start = i
                continue
            if "(" in prefix:
                # Function definition: skip body and optional trailing
                # tokens up to ';' or the next statement.
                i = j
                stmt_start = i
                continue
            # Braced initializer of a member: scan on to the ';'.
            i = j
            continue
        if c == ";":
            stmt = body[stmt_start:i].strip()
            stmt_line = line0 + body.count("\n", 0, stmt_start)
            # Leading newlines belong to the previous statement.
            lead = body[stmt_start:i]
            stmt_line += len(lead) - len(lead.lstrip("\n")) \
                if lead.startswith("\n") else 0
            i += 1
            stmt_start = i
            if not stmt:
                continue
            first = _NAME_RE.match(stmt.lstrip())
            if first and first.group(0) in _SKIP_PREFIXES:
                continue
            if ":" in stmt.split("<")[0] and stmt.rstrip().endswith(":"):
                continue  # access specifier
            if re.match(r"^(public|private|protected)\s*:", stmt):
                continue
            if stmt.startswith("static"):
                continue
            # A parenthesis at angle-bracket depth 0 marks a function
            # declaration; parens inside template arguments do not
            # (std::function<bool(PhysFrame)> pred; is a member).
            angle = 0
            is_function = False
            for ch in stmt:
                if ch == "<":
                    angle += 1
                elif ch == ">":
                    angle = max(0, angle - 1)
                elif ch == "(" and angle == 0:
                    is_function = True
                    break
            if is_function:
                continue
            for member in _declarator_names(stmt):
                model.members.append(Member(member, stmt_line, stmt))
            continue
        if c == ":" and body[i:i + 2] != "::" and body[i - 1:i] != ":":
            # Could be an access specifier handled at ';' time; just
            # treat `label:` as statement separator when it ends here.
            label = body[stmt_start:i].strip()
            if label in ("public", "private", "protected"):
                stmt_start = i + 1
        i += 1
    return model


def function_body(text: str, signature_prefix: str) -> str:
    """Body of the first function whose definition starts with
    `signature_prefix` (after comment stripping). Raises ValueError
    when not found."""
    stripped = strip_comments(text)
    idx = stripped.find(signature_prefix)
    if idx < 0:
        raise ValueError(f"definition not found: {signature_prefix}")
    brace = stripped.find("{", idx)
    semi = stripped.find(";", idx)
    if brace < 0 or (0 <= semi < brace):
        raise ValueError(f"no body for: {signature_prefix}")
    depth = 1
    i = brace + 1
    while i < len(stripped) and depth:
        if stripped[i] == "{":
            depth += 1
        elif stripped[i] == "}":
            depth -= 1
        i += 1
    if depth:
        raise ValueError(f"unbalanced body: {signature_prefix}")
    return stripped[brace + 1:i - 1]
