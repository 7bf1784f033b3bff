"""Line-oriented text format for models.

One declaration per line; subsystems open a brace scope.  The grammar is
documented in the README.  ``parse_model`` and ``print_model`` round-trip:
parsing the printed form yields a structurally equal model.
"""

from __future__ import annotations

import re
import sys

from .errors import (
    DslSyntaxError,
    DuplicateName,
    ModelValidationError,
    TypeAnnotationMissing,
    UnknownBlockKind,
)
from .exprs import Value
from .model import (
    ALL_KINDS,
    Block,
    BoolType,
    Connection,
    DataType,
    Diagram,
    EnumType,
    IntType,
    Model,
    Port,
    SUBSYSTEM_KINDS,
    block_ports,
    dtype_str,
    in_domain,
    wire_end,
)

_RE_MODEL = re.compile(r"^model\s+(\w+)$")
_RE_TYPE = re.compile(r"^type\s+(\w+)\s*=\s*enum\s*\{([^}]*)\}$")
_RE_PORT = re.compile(r"^(in|out)\s+(\w+)\s*:\s*([^=]+?)\s*(?:=\s*(\S.*))?$")
_RE_BLOCK = re.compile(r"^block\s+(\w+)\s*:\s*(\w+)\s*(?:\((.*)\))?\s*(\{)?$")
# a wire end is a block and an optional port
_RE_WIRE = re.compile(r"^wire\s+(\w+)(?:\.(\w+))?\s*->\s*(\w+)(?:\.(\w+))?$")
_RE_INT_TYPE = re.compile(r"^int\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")
_RE_SIGNS = re.compile(r"^[+-]+$")

_LOGIC_OPS = ("AND", "OR", "NOT", "XOR")
_REL_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _split_params(text: str) -> list[str]:
    """Split a parameter list on commas that are not inside brackets."""
    if "[" not in text and "(" not in text:  # every comma splits
        *parts, tail = text.split(",")
        return [p.strip() for p in parts] + ([tail.strip()] if tail.strip() else [])
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


class _Parser:
    def __init__(self, text: str):
        lines = text.splitlines()
        self.end = len(lines)
        # (line number, text without comment) of each line that is not
        # blank, consumed once: a subsystem's level reads on from where its
        # parent's left off
        self.lines = iter([
            (i, code) for i, raw in enumerate(lines, 1)
            if (code := (raw.split("#", 1)[0] if "#" in raw else raw).strip())
        ])
        self.pos = 0  # line number of the last line read
        self.model: Model | None = None

    def error(self, msg: str, cls=DslSyntaxError):
        raise cls(msg, self.pos)

    # ------------------------------------------------------------------
    def parse(self) -> Model:
        first = next(self.lines, None)
        if first is None:
            raise DslSyntaxError("empty model text", 0)
        self.pos, line = first
        m = _RE_MODEL.match(line)
        if not m:
            self.error(f"expected 'model <name>', got {line!r}")
        self.model = Model(name=sys.intern(m.group(1)))
        self._parse_level(self.model.diagram, top=True)
        return self.model

    # ------------------------------------------------------------------
    def _parse_level(self, diagram: Diagram, top: bool) -> None:
        diagram.port_tables = {}
        wires: list[tuple[str, str | None, str, str | None, int]] = []
        for self.pos, line in self.lines:
            if line == "}":
                if top:
                    self.error("unmatched '}'")
                break
            # wires are the most common lines, then blocks; the forms start
            # with distinct keywords, so at most one matches
            m = _RE_WIRE.match(line)
            if m:
                wires.append((*m.groups(), self.pos))
                continue
            m = _RE_BLOCK.match(line)
            if m:
                self._block(m, diagram)
                continue
            if self._try_port(line, diagram):
                continue
            if self._try_type(line, top):
                continue
            self.error(f"cannot parse line {line!r}")
        else:  # the end of the text
            self.pos = self.end
            if not top:
                self.error("unterminated subsystem: missing '}'")
        # each end names a port of a block of this level: checked here, once,
        # against the port tables the diagram carries
        tables, conns = diagram.port_tables, diagram.connections
        for sb, sp, db, dp, ln in wires:
            try:
                sp = wire_end(tables, sb, sp, True)
                dp = wire_end(tables, db, dp, False)
            except ModelValidationError as e:
                raise DslSyntaxError(str(e), ln) from None
            conns.append(Connection(sb, sp, db, dp, line=ln))

    def _try_type(self, line: str, top: bool) -> bool:
        m = _RE_TYPE.match(line)
        if not m:
            return False
        if not top:
            self.error("enum types must be declared at the top level")
        name, body = m.group(1), m.group(2)
        variants = tuple(v.strip() for v in body.split(",") if v.strip())
        if not variants or len(set(variants)) != len(variants):
            self.error(f"bad variant list for enum {name!r}")
        if name in self.model.enums:
            self.error(f"enum {name!r} already declared", DuplicateName)
        self.model.enums[name] = EnumType(variants)
        return True

    def _try_port(self, line: str, diagram: Diagram) -> bool:
        m = _RE_PORT.match(line)
        if not m:
            return False
        direction, name, type_text, init_text = m.groups()
        # port and model names end up in every report of a check; interned,
        # reports of repeated parses share them
        name = sys.intern(name)
        dtype = self._parse_type(type_text)
        init: Value | None = None
        if init_text is not None:
            if direction == "in":
                self.error(f"input port {name!r} cannot carry an initial value")
            init, _ = self._parse_literal(init_text)
            if not in_domain(dtype, init):
                self.error(f"initial value {init_text!r} outside {type_text}")
        if name in diagram.blocks:
            self.error(f"name {name!r} already used", DuplicateName)
        port = Port(name, direction, dtype, init)
        kind = "Inport" if direction == "in" else "Outport"
        (diagram.inputs if direction == "in" else diagram.outputs).append(port)
        self._add(diagram, Block(name, kind, {}, line=self.pos))
        return True

    @staticmethod
    def _add(diagram: Diagram, blk: Block) -> None:
        """Add a block, and its port table, computed here once."""
        diagram.blocks[blk.name] = blk
        diagram.port_tables[blk.name] = block_ports(blk)

    def _block(self, m: re.Match, diagram: Diagram) -> None:
        name, kind, params_text, brace = m.groups()
        if name in diagram.blocks:
            self.error(f"name {name!r} already used", DuplicateName)
        if kind not in ALL_KINDS or kind == "HoldOutput":
            self.error(f"unknown block kind {kind!r}", UnknownBlockKind)
        if kind in SUBSYSTEM_KINDS:
            if not brace:
                self.error(f"{kind} must open a '{{' scope")
            if params_text:
                self.error(f"{kind} takes no parameters")
            child = Diagram()
            self._parse_level(child, top=False)
            self._add(diagram, Block(name, kind, {}, child, line=self.pos))
            return
        if brace:
            self.error(f"{kind} does not open a scope")
        params = self._parse_params(kind, params_text or "")
        self._add(diagram, Block(name, kind, params, line=self.pos))

    # ------------------------------------------------------------------
    def _parse_type(self, text: str) -> DataType:
        text = text.strip()
        if text == "bool":
            return BoolType()
        m = _RE_INT_TYPE.match(text)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                self.error(f"empty range in {text!r}")
            return IntType(lo, hi)
        if text == "int":
            self.error(
                "integer ports need explicit bounds, e.g. int[0,255]",
                TypeAnnotationMissing,
            )
        if text in self.model.enums:
            return self.model.enums[text]
        self.error(f"unknown type {text!r}")

    def _parse_literal(self, text: str) -> tuple[Value, object]:
        """Returns (value, kind) with kind in 'bool'|'int'|EnumType."""
        text = text.strip()
        if text == "true":
            return True, "bool"
        if text == "false":
            return False, "bool"
        if re.fullmatch(r"-?\d+", text):
            return int(text), "int"
        m = re.fullmatch(r"(\w+)\.(\w+)", text)
        if m and m.group(1) in self.model.enums:
            et = self.model.enums[m.group(1)]
            if m.group(2) not in et.variants:
                self.error(f"{m.group(2)!r} is not a variant of {m.group(1)}")
            return m.group(2), et
        self.error(f"cannot parse literal {text!r}")

    def _parse_params(self, kind: str, text: str) -> dict:
        if kind == "Logic" and text in _LOGIC_OPS:  # the most common block
            return {"op": text}
        parts = _split_params(text)

        def arity(n_lo: int, n_hi: int | None = None):
            n_hi = n_lo if n_hi is None else n_hi
            if not (n_lo <= len(parts) <= n_hi):
                self.error(f"{kind} takes {n_lo} parameter(s), got {len(parts)}")

        if kind == "Constant":
            arity(1)
            value, vkind = self._parse_literal(parts[0])
            return {"value": value, "kind": vkind}
        if kind in ("UnitDelay", "DataStoreMemory"):
            arity(1, 2)
            init, vkind = self._parse_literal(parts[0])
            if vkind == "int":
                if len(parts) < 2:
                    self.error(
                        f"{kind} with integer state needs a domain, "
                        f"e.g. {kind}({parts[0]}, int[0,10])",
                        TypeAnnotationMissing,
                    )
                dtype = self._parse_type(parts[1])
                if not isinstance(dtype, IntType):
                    self.error(f"{kind} domain must be an int range")
            else:
                if len(parts) > 1:
                    self.error(f"{kind}: domain only applies to integer state")
                dtype = BoolType() if vkind == "bool" else vkind
            if not in_domain(dtype, init):
                self.error(f"initial value {parts[0]} outside declared domain")
            return {"init": init, "dtype": dtype}
        if kind == "Switch":
            arity(0)
            return {}
        if kind == "Logic":
            arity(1)
            if parts[0] not in _LOGIC_OPS:
                self.error(f"Logic op must be one of {_LOGIC_OPS}")
            return {"op": parts[0]}
        if kind == "Relational":
            arity(1)
            if parts[0] not in _REL_OPS:
                self.error(f"Relational op must be one of {_REL_OPS}")
            return {"op": parts[0]}
        if kind == "Sum":
            arity(1)
            if not _RE_SIGNS.match(parts[0]):
                self.error("Sum signs must be a nonempty string over '+-'")
            return {"signs": parts[0]}
        if kind == "Product":
            arity(0)
            return {}
        if kind == "Gain":
            arity(1)
            v, vk = self._parse_literal(parts[0])
            if vk != "int":
                self.error("Gain factor must be an integer")
            return {"k": v}
        if kind == "MinMax":
            arity(1)
            if parts[0] not in ("min", "max"):
                self.error("MinMax mode must be 'min' or 'max'")
            return {"mode": parts[0]}
        if kind == "Saturation":
            arity(2)
            lo, lk = self._parse_literal(parts[0])
            hi, hk = self._parse_literal(parts[1])
            if lk != "int" or hk != "int" or lo > hi:
                self.error("Saturation bounds must be integers with lo <= hi")
            return {"lo": lo, "hi": hi}
        if kind in ("DataStoreRead", "DataStoreWrite"):
            arity(1)
            if not re.fullmatch(r"\w+", parts[0]):
                self.error(f"{kind} expects a store name")
            return {"store": parts[0]}
        raise AssertionError(kind)

def parse_model(text: str) -> Model:
    """Parse model text; raises :class:`DslSyntaxError` subclasses on errors."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing


def _literal_str(value: Value, enums: dict[str, EnumType]) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    for name, et in enums.items():
        if value in et.variants:
            return f"{name}.{value}"
    return str(value)


def _params_str(blk: Block, enums: dict[str, EnumType], enum_names) -> str:
    k, p = blk.kind, blk.params
    if k == "Constant":
        return _literal_str(p["value"], enums)
    if k in ("UnitDelay", "DataStoreMemory"):
        init = _literal_str(p["init"], enums)
        if isinstance(p["dtype"], IntType):
            return f"{init}, {dtype_str(p['dtype'])}"
        return init
    if k == "Logic":
        return p["op"]
    if k == "Relational":
        return p["op"]
    if k == "Sum":
        return p["signs"]
    if k == "Gain":
        return str(p["k"])
    if k == "MinMax":
        return p["mode"]
    if k == "Saturation":
        return f"{p['lo']}, {p['hi']}"
    if k in ("DataStoreRead", "DataStoreWrite"):
        return p["store"]
    return ""


def print_model(model: Model) -> str:
    """Render a model back to its text form."""
    enum_names = {et: name for name, et in model.enums.items()}
    out: list[str] = [f"model {model.name}"]
    for name, et in model.enums.items():
        out.append(f"type {name} = enum {{ {', '.join(et.variants)} }}")

    def level(diagram: Diagram, indent: str) -> None:
        for port in diagram.inputs:
            out.append(f"{indent}in {port.name} : {dtype_str(port.dtype, enum_names)}")
        for port in diagram.outputs:
            suffix = ""
            if port.init is not None:
                suffix = f" = {_literal_str(port.init, model.enums)}"
            out.append(
                f"{indent}out {port.name} : {dtype_str(port.dtype, enum_names)}{suffix}"
            )
        for name, blk in diagram.blocks.items():
            if blk.kind in ("Inport", "Outport"):
                continue
            if blk.kind in SUBSYSTEM_KINDS:
                out.append(f"{indent}block {name} : {blk.kind} {{")
                level(blk.children, indent + "  ")
                out.append(f"{indent}}}")
                continue
            params = _params_str(blk, model.enums, enum_names)
            params = f"({params})" if params else ""
            out.append(f"{indent}block {name} : {blk.kind}{params}")
        for c in diagram.connections:
            out.append(
                f"{indent}wire {c.src_block}.{c.src_port} -> {c.dst_block}.{c.dst_port}"
            )

    level(model.diagram, "")
    return "\n".join(out) + "\n"


def parse_mapping_file(text: str) -> dict[str, str]:
    """Port mapping overrides: one ``bPort = aPort`` pair per line."""
    out: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"(\w+)\s*=\s*(\w+)", line)
        if not m:
            raise DslSyntaxError(f"expected 'bPort = aPort', got {line!r}", i)
        if m.group(1) in out:
            raise DslSyntaxError(f"duplicate mapping for {m.group(1)!r}", i)
        out[m.group(1)] = m.group(2)
    return out
