//! Textual assembly: rendering is [`crate::Program`]'s `Display`; this
//! module provides the parser for the same format, so listings emitted by
//! the kernel generator can be re-ingested (round-trip tested).
//!
//! Grammar (one construct per line):
//!
//! ```text
//! ; comment
//! .loop L<level> x<trips>
//! .endloop
//!   { [Unit label] MNEMONIC ops, ... || [Unit label] ... }
//!   { NOP }
//! ```

use crate::{
    AddrExpr, BufId, Bundle, Instruction, IsaError, LoopLevel, MemSpace, Opcode, Program, SReg,
    Section, Unit, VReg,
};

/// Render a program to assembly text (same as its `Display`).
pub fn render(program: &Program) -> String {
    program.to_string()
}

/// Parse assembly text produced by [`render`].
pub fn parse(text: &str) -> Result<Program, IsaError> {
    let mut parser = Parser {
        name: String::from("parsed"),
        stack: vec![Frame::default()],
    };
    for (n, raw) in text.lines().enumerate() {
        parser.line(n + 1, raw)?;
    }
    if parser.stack.len() != 1 {
        return Err(IsaError::Parse {
            line: text.lines().count(),
            detail: "unterminated .loop".into(),
        });
    }
    let frame = parser.stack.pop().expect("root frame");
    let mut p = Program::new(parser.name);
    p.sections = frame.into_sections();
    Ok(p)
}

#[derive(Default)]
struct Frame {
    sections: Vec<Section>,
    pending: Vec<Bundle>,
    header: Option<(LoopLevel, u64)>,
}

impl Frame {
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.sections
                .push(Section::Straight(std::mem::take(&mut self.pending)));
        }
    }

    fn into_sections(mut self) -> Vec<Section> {
        self.flush();
        self.sections
    }
}

struct Parser {
    name: String,
    stack: Vec<Frame>,
}

impl Parser {
    fn err(line: usize, detail: impl Into<String>) -> IsaError {
        IsaError::Parse {
            line,
            detail: detail.into(),
        }
    }

    fn line(&mut self, n: usize, raw: &str) -> Result<(), IsaError> {
        let line = raw.trim();
        if line.is_empty() {
            return Ok(());
        }
        if let Some(comment) = line.strip_prefix(';') {
            if let Some(name) = comment.trim().strip_prefix("kernel ") {
                self.name = name.trim().to_string();
            }
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix(".loop") {
            let rest = rest.trim();
            let (lvl, trips) = rest
                .split_once(' ')
                .ok_or_else(|| Self::err(n, "expected `.loop L<level> x<trips>`"))?;
            let level: u8 = lvl
                .trim()
                .strip_prefix('L')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| Self::err(n, format!("bad loop level `{lvl}`")))?;
            let trips: u64 = trips
                .trim()
                .strip_prefix('x')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| Self::err(n, format!("bad trip count `{trips}`")))?;
            let top = self.stack.last_mut().expect("stack never empty");
            if let Some((outer, _)) = top.header.filter(|(outer, _)| outer.0 >= level) {
                return Err(Self::err(
                    n,
                    format!(
                        "loop L{level} is not nested deeper than its enclosing L{}",
                        outer.0
                    ),
                ));
            }
            top.flush();
            self.stack.push(Frame {
                header: Some((LoopLevel::checked(level)?, trips)),
                ..Frame::default()
            });
            return Ok(());
        }
        if line == ".sect" {
            // Boundary between adjacent straight sections.
            self.stack.last_mut().expect("stack never empty").flush();
            return Ok(());
        }
        if line == ".endloop" {
            let frame = self
                .stack
                .pop()
                .filter(|f| f.header.is_some())
                .ok_or_else(|| Self::err(n, "`.endloop` without `.loop`"))?;
            let (level, trips) = frame.header.expect("checked above");
            let body = frame.into_sections();
            self.stack
                .last_mut()
                .ok_or_else(|| Self::err(n, "`.endloop` at top level"))?
                .sections
                .push(Section::Loop { level, trips, body });
            return Ok(());
        }
        if line.starts_with('{') && line.ends_with('}') {
            let inner = &line[1..line.len() - 1];
            let bundle = parse_bundle(n, inner.trim())?;
            self.stack
                .last_mut()
                .expect("stack never empty")
                .pending
                .push(bundle);
            return Ok(());
        }
        Err(Self::err(n, format!("unrecognised line `{line}`")))
    }
}

fn parse_bundle(n: usize, inner: &str) -> Result<Bundle, IsaError> {
    let mut bundle = Bundle::new();
    if inner == "NOP" || inner.is_empty() {
        return Ok(bundle);
    }
    for part in inner.split("||") {
        let part = part.trim();
        let close = part
            .find(']')
            .ok_or_else(|| Parser::err(n, "expected `[Unit]` tag"))?;
        let label = part
            .strip_prefix('[')
            .map(|s| &s[..close - 1])
            .ok_or_else(|| Parser::err(n, "expected `[Unit]` tag"))?;
        let unit = Unit::ALL
            .into_iter()
            .find(|u| u.row_label() == label)
            .ok_or_else(|| Parser::err(n, format!("unknown unit `{label}`")))?;
        let inst = parse_instruction(n, part[close + 1..].trim())?;
        bundle.push(unit, inst)?;
    }
    Ok(bundle)
}

fn parse_instruction(n: usize, text: &str) -> Result<Instruction, IsaError> {
    let (mnem, rest) = match text.split_once(' ') {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let opcode = Opcode::from_mnemonic(mnem)
        .ok_or_else(|| Parser::err(n, format!("unknown mnemonic `{mnem}`")))?;
    let ops = split_operands(rest);
    let sreg = |s: &str| -> Result<SReg, IsaError> {
        s.strip_prefix('R')
            .and_then(|x| x.parse().ok())
            .map(SReg::new)
            .transpose()?
            .ok_or_else(|| Parser::err(n, format!("expected scalar register, got `{s}`")))
    };
    let vreg = |s: &str| -> Result<VReg, IsaError> {
        s.strip_prefix('V')
            .and_then(|x| x.parse().ok())
            .map(VReg::new)
            .transpose()?
            .ok_or_else(|| Parser::err(n, format!("expected vector register, got `{s}`")))
    };
    let mem = |s: &str| parse_addr(n, s);
    let want = |count: usize| -> Result<(), IsaError> {
        if ops.len() == count {
            Ok(())
        } else {
            Err(Parser::err(
                n,
                format!("{mnem} expects {count} operands, got {}", ops.len()),
            ))
        }
    };
    match opcode {
        Opcode::Sldh => {
            want(2)?;
            Ok(Instruction::sldh(sreg(&ops[0])?, mem(&ops[1])?))
        }
        Opcode::Sldw => {
            want(2)?;
            Ok(Instruction::sldw(sreg(&ops[0])?, mem(&ops[1])?))
        }
        Opcode::Sfexts32l => {
            want(2)?;
            Ok(Instruction::sfexts32l(sreg(&ops[0])?, sreg(&ops[1])?))
        }
        Opcode::Sbale2h => {
            want(2)?;
            Ok(Instruction::sbale2h(sreg(&ops[0])?, sreg(&ops[1])?))
        }
        Opcode::Svbcast => {
            want(2)?;
            Ok(Instruction::svbcast(vreg(&ops[0])?, sreg(&ops[1])?))
        }
        Opcode::Svbcast2 => {
            // Rendered defs-then-uses: Vd1, Vd2, Rs1, Rs2.
            want(4)?;
            Ok(Instruction::svbcast2(
                vreg(&ops[0])?,
                sreg(&ops[2])?,
                vreg(&ops[1])?,
                sreg(&ops[3])?,
            ))
        }
        Opcode::Sbr => {
            want(0)?;
            Ok(Instruction::sbr())
        }
        Opcode::Vldw => {
            want(2)?;
            Ok(Instruction::vldw(vreg(&ops[0])?, mem(&ops[1])?))
        }
        Opcode::Vlddw => {
            want(3)?;
            Instruction::vlddw(vreg(&ops[0])?, mem(&ops[2])?)
        }
        Opcode::Vstw => {
            want(2)?;
            Ok(Instruction::vstw(vreg(&ops[0])?, mem(&ops[1])?))
        }
        Opcode::Vstdw => {
            want(3)?;
            Instruction::vstdw(vreg(&ops[0])?, mem(&ops[2])?)
        }
        Opcode::Vfmulas32 => {
            // Rendered without the implicit accumulator re-read: Vc, Va, Vb.
            want(3)?;
            Ok(Instruction::vfmulas32(
                vreg(&ops[0])?,
                vreg(&ops[1])?,
                vreg(&ops[2])?,
            ))
        }
        Opcode::Vfadds32 => {
            want(3)?;
            Ok(Instruction::vfadds32(
                vreg(&ops[0])?,
                vreg(&ops[1])?,
                vreg(&ops[2])?,
            ))
        }
        Opcode::Vclr => {
            want(1)?;
            Ok(Instruction::vclr(vreg(&ops[0])?))
        }
        Opcode::Vmov => {
            want(2)?;
            Ok(Instruction::vmov(vreg(&ops[0])?, vreg(&ops[1])?))
        }
    }
}

fn split_operands(rest: &str) -> Vec<String> {
    // Operands are comma-separated; address expressions contain no commas.
    if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(|s| s.trim().to_string()).collect()
    }
}

fn parse_addr(n: usize, s: &str) -> Result<AddrExpr, IsaError> {
    // Format: SPACE[BUF+off(+stride*iLVL)*]
    let open = s
        .find('[')
        .ok_or_else(|| Parser::err(n, format!("bad address `{s}`")))?;
    let space = match &s[..open] {
        "SM" => MemSpace::Sm,
        "AM" => MemSpace::Am,
        other => return Err(Parser::err(n, format!("unknown memory space `{other}`"))),
    };
    let inner = s[open + 1..]
        .strip_suffix(']')
        .ok_or_else(|| Parser::err(n, format!("bad address `{s}`")))?;
    let mut terms = inner.split('+');
    let buf = match terms.next() {
        Some("A") => BufId::A,
        Some("B") => BufId::B,
        Some("C") => BufId::C,
        other => {
            return Err(Parser::err(
                n,
                format!("unknown buffer `{}`", other.unwrap_or("")),
            ))
        }
    };
    let offset: u64 = terms
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| Parser::err(n, format!("bad offset in `{s}`")))?;
    let mut addr = AddrExpr::flat(space, buf, offset);
    for term in terms {
        let (stride, level) = term
            .split_once("*i")
            .ok_or_else(|| Parser::err(n, format!("bad stride term `{term}`")))?;
        let stride: u64 = stride
            .parse()
            .map_err(|_| Parser::err(n, format!("bad stride `{stride}`")))?;
        let level: usize = level
            .parse()
            .map_err(|_| Parser::err(n, format!("bad level `{level}`")))?;
        if level >= crate::addr::MAX_LOOP_DEPTH {
            return Err(IsaError::BadLoopLevel(level as u8));
        }
        addr = addr.with_stride(level, stride);
    }
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u16) -> VReg {
        VReg::new(n).unwrap()
    }
    fn r(n: u16) -> SReg {
        SReg::new(n).unwrap()
    }

    fn sample_program() -> Program {
        let mut prologue = Bundle::new();
        prologue.push_auto(Instruction::vclr(v(0))).unwrap();
        prologue
            .push_auto(Instruction::sldw(
                r(0),
                AddrExpr::flat(MemSpace::Sm, BufId::A, 8).with_stride(1, 16),
            ))
            .unwrap();

        let mut body = Bundle::new();
        body.push_auto(Instruction::sfexts32l(r(1), r(0))).unwrap();
        body.push_auto(Instruction::svbcast2(v(10), r(1), v(11), r(2)))
            .unwrap();
        body.push_auto(Instruction::vfmulas32(v(0), v(10), v(20)))
            .unwrap();
        body.push_auto(Instruction::sbr()).unwrap();
        body.push_auto(
            Instruction::vlddw(
                v(20),
                AddrExpr::flat(MemSpace::Am, BufId::B, 0).with_stride(1, 512),
            )
            .unwrap(),
        )
        .unwrap();

        let mut epilogue = Bundle::new();
        epilogue
            .push_auto(Instruction::vstw(
                v(0),
                AddrExpr::flat(MemSpace::Am, BufId::C, 128).with_stride(0, 768),
            ))
            .unwrap();

        let mut p = Program::new("roundtrip_demo");
        p.sections.push(Section::Straight(vec![prologue]));
        p.sections.push(Section::Loop {
            level: LoopLevel(0),
            trips: 3,
            body: vec![Section::Loop {
                level: LoopLevel(1),
                trips: 5,
                body: vec![Section::Straight(vec![body])],
            }],
        });
        p.sections.push(Section::Straight(vec![epilogue]));
        p
    }

    #[test]
    fn render_parse_round_trip() {
        let p = sample_program();
        let text = render(&p);
        let q = parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(p, q);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("what is this").is_err());
        assert!(parse(".loop L0 x2\n").is_err(), "unterminated loop");
        assert!(parse(".endloop\n").is_err(), "stray endloop");
        let flat = ".loop L1 x2\n.loop L0 x1\n{ NOP }\n.endloop\n.endloop\n";
        assert!(parse(flat).is_err(), "inner loop not deeper than outer");
        assert!(parse("  { [Vector FMAC1] FROB V1 }").is_err());
    }

    #[test]
    fn nop_bundles_round_trip() {
        let mut p = Program::new("nops");
        p.sections.push(Section::Straight(vec![Bundle::new(); 2]));
        let q = parse(&render(&p)).unwrap();
        assert_eq!(q.cycles(), 2);
        assert_eq!(q.instructions(), 0);
    }

    #[test]
    fn parse_recovers_kernel_name() {
        let p = sample_program();
        let q = parse(&render(&p)).unwrap();
        assert_eq!(q.name, "roundtrip_demo");
    }

    #[test]
    fn address_expressions_round_trip_strides() {
        let text = "  { [Vector Load&Store1] VLDW V3, AM[B+64+512*i1+8*i2] }";
        let p = parse(text).unwrap();
        let Section::Straight(bundles) = &p.sections[0] else {
            panic!("expected straight section");
        };
        let inst = bundles[0].on_unit(Unit::VectorLs1).unwrap();
        let mem = inst.mem.unwrap();
        assert_eq!(mem.offset, 64);
        assert_eq!(mem.strides[1], 512);
        assert_eq!(mem.strides[2], 8);
    }
}
