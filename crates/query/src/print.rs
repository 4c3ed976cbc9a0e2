//! The canonical printer: one text per program.
//!
//! [`Program`]'s `Display` writes the canonical text: no comments,
//! fixed spacing, every constant quoted (`'…'`, or `"…"` when it holds
//! a `'`), parentheses only where precedence needs them. It parses back
//! to an equal AST. [`Program::shape`] writes the same text with each
//! constant as its slot `$k` — the program with its constants lifted,
//! which is all a plan depends on.

use crate::ast::{AggExpr, AggOp, BinOp, Expr, HeadAtom, Program, Recursion, Rule, Term};
use std::fmt::{self, Write};

impl Program {
    /// The canonical text with every body constant printed as its slot
    /// `$k`: two programs with equal shapes differ at most in the values
    /// of their constants, so they share one plan.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        write_program(&mut out, self, true).expect("writing to a String cannot fail");
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_program(f, self, false)
    }
}

fn write_program(w: &mut impl Write, program: &Program, slots: bool) -> fmt::Result {
    for (i, rule) in program.rules.iter().enumerate() {
        if i > 0 {
            w.write_char(' ')?;
        }
        write_rule(w, rule, slots)?;
    }
    Ok(())
}

fn write_rule(w: &mut impl Write, rule: &Rule, slots: bool) -> fmt::Result {
    write_head(w, &rule.head)?;
    w.write_str(" :- ")?;
    for (i, atom) in rule.body.iter().enumerate() {
        if i > 0 {
            w.write_char(',')?;
        }
        write!(w, "{}(", atom.relation)?;
        for (j, term) in atom.terms.iter().enumerate() {
            if j > 0 {
                w.write_char(',')?;
            }
            match term {
                Term::Var(v) => w.write_str(v)?,
                Term::Const(k) if slots => write!(w, "${k}")?,
                Term::Const(k) => write_quoted(w, &rule.consts[*k])?,
            }
        }
        w.write_char(')')?;
    }
    if let Some(AggExpr { result_var, expr }) = &rule.agg {
        write!(w, "; {result_var}=")?;
        write_expr(w, expr)?;
    }
    w.write_char('.')
}

fn write_head(w: &mut impl Write, head: &HeadAtom) -> fmt::Result {
    write!(w, "{}({}", head.relation, head.key_vars.join(","))?;
    if let Some(a) = &head.annotation {
        write!(w, ";{}:{}", a.name, a.ty)?;
    }
    w.write_char(')')?;
    match head.recursion {
        None => Ok(()),
        Some(Recursion::Fixpoint) => w.write_char('*'),
        Some(Recursion::Iterations(n)) => write!(w, "*[i={n}]"),
        Some(Recursion::Epsilon(eps)) => {
            w.write_str("*[c=")?;
            write_num(w, eps)?;
            w.write_char(']')
        }
    }
}

/// A string constant between quotes the lexer reads back verbatim.
fn write_quoted(w: &mut impl Write, value: &str) -> fmt::Result {
    let quote = if value.contains('\'') { '"' } else { '\'' };
    write!(w, "{quote}{value}{quote}")
}

/// A literal the lexer reads back to the same `f64`: a whole number
/// below 2^64 as an integer, a larger one with `.0` (the lexer's
/// integers are `u64`), anything else in Rust's shortest round-trip
/// decimal form.
fn write_num(w: &mut impl Write, n: f64) -> fmt::Result {
    if n.fract() != 0.0 {
        write!(w, "{n}")
    } else if n < u64::MAX as f64 {
        write!(w, "{}", n as u64)
    } else {
        write!(w, "{n:.1}")
    }
}

/// Binding strength: `+ -` below `* /` below a unit.
fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Binary(BinOp::Add | BinOp::Sub, ..) => 1,
        Expr::Binary(BinOp::Mul | BinOp::Div, ..) => 2,
        _ => 3,
    }
}

fn write_expr(w: &mut impl Write, e: &Expr) -> fmt::Result {
    match e {
        Expr::Num(n) => write_num(w, *n),
        Expr::ScalarRef(name) => w.write_str(name),
        Expr::Agg(op, vars) => {
            let name = match op {
                AggOp::Count => "COUNT",
                AggOp::Sum => "SUM",
                AggOp::Min => "MIN",
                AggOp::Max => "MAX",
            };
            let vars = if vars.is_empty() {
                "*".to_string()
            } else {
                vars.join(",")
            };
            write!(w, "<<{name}({vars})>>")
        }
        Expr::Binary(op, l, r) => {
            // Operators associate to the left, so a right operand of
            // equal strength keeps its parentheses.
            let p = precedence(e);
            write_operand(w, l, precedence(l) < p)?;
            w.write_char(match op {
                BinOp::Add => '+',
                BinOp::Sub => '-',
                BinOp::Mul => '*',
                BinOp::Div => '/',
            })?;
            write_operand(w, r, precedence(r) <= p)
        }
    }
}

fn write_operand(w: &mut impl Write, e: &Expr, parens: bool) -> fmt::Result {
    if parens {
        w.write_char('(')?;
        write_expr(w, e)?;
        w.write_char(')')
    } else {
        write_expr(w, e)
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_program;

    fn canonical(text: &str) -> String {
        parse_program(text).unwrap().to_string()
    }

    #[test]
    fn prints_the_canonical_text() {
        assert_eq!(
            canonical("  PageRank(x ; y : float)*[i=5] :-\n Edge(x,z), PageRank(z) , InvDeg(z) ;\ty = 0.15+0.85*<<SUM(z)>> . # rank"),
            "PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>."
        );
        assert_eq!(
            canonical("T() :- E(x). C(;w:long) :- E(x,y); w=<<COUNT(*)>>."),
            "T() :- E(x). C(;w:long) :- E(x,y); w=<<COUNT(*)>>."
        );
        assert_eq!(
            canonical("P(x;y:float)*[c=0.001] :- E(x,z),P(z); y=(1-(2-3))*(4/2)."),
            "P(x;y:float)*[c=0.001] :- E(x,z),P(z); y=(1-(2-3))*(4/2)."
        );
        assert_eq!(
            canonical("S(x;y:int)* :- E(w,x),S(w); y=((<<MIN(w)>>))+1."),
            "S(x;y:int)* :- E(w,x),S(w); y=<<MIN(w)>>+1."
        );
    }

    #[test]
    fn constants_print_quoted_and_their_slots_print_as_dollars() {
        let p = parse_program("A(x) :- E(007,x),E(x,\"it's\"),F('7',x,'café').").unwrap();
        assert_eq!(
            p.to_string(),
            "A(x) :- E('7',x),E(x,\"it's\"),F('7',x,'café')."
        );
        assert_eq!(p.shape(), "A(x) :- E($0,x),E(x,$1),F($0,x,$2).");
        let q = parse_program("A(x) :- E(8,x),E(x,'b'),F('8',x,'c').").unwrap();
        assert_eq!(q.shape(), p.shape(), "same shape, other values");
        let r = parse_program("A(x) :- E(8,x),E(x,'b'),F('9',x,'c').").unwrap();
        assert_ne!(r.shape(), p.shape(), "two distinct values are two slots");
    }

    #[test]
    fn numbers_print_back_to_the_same_f64() {
        let literals = [
            "0.15",
            "1",
            "0.0000001",
            "123456.789",
            "100000000000000000000.0",
            "18446744073709551615",
            "9007199254740993",
        ];
        for n in literals {
            let text = format!("T(;w:float)*[c={n}] :- E(x); w={n}*<<SUM(x)>>.");
            let p = parse_program(&text).unwrap();
            assert_eq!(parse_program(&p.to_string()).unwrap(), p, "{n}: {p}");
        }
    }
}
