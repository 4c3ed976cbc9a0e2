//! Recursive-descent parser for the EmptyHeaded query language.
//!
//! Grammar (informal):
//!
//! ```text
//! program    := rule+
//! rule       := head ':-' body ( ';' aggclause )? '.'
//! head       := IDENT '(' headargs ')' recursion?
//! headargs   := var (',' var)* ( ';' annot )? | ';' annot | ε
//! annot      := IDENT ':' IDENT
//! recursion  := '*' ( '[' ('i'|'c') '=' NUMBER ']' )?
//! body       := atom (',' atom)*
//! atom       := IDENT '(' term (',' term)* ')'
//! term       := IDENT | STRING | NUMBER
//! aggclause  := IDENT '=' expr
//! expr       := mul (('+'|'-') mul)*
//! mul        := unit (('*'|'/') unit)*
//! unit       := NUMBER | IDENT | '<<' IDENT '(' ('*'|vars) ')' '>>' | '(' expr ')'
//! ```

use crate::ast::*;
use crate::lexer::{Lexer, Token};
use std::fmt;

/// Parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: msg.into(),
    })
}

/// Parse a whole program (one or more rules).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = Lexer::new(src).tokenize().map_err(|(pos, m)| ParseError {
        message: format!("at byte {pos}: {m}"),
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        consts: Vec::new(),
    };
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.rule()?);
    }
    if rules.is_empty() {
        return err("empty program");
    }
    Ok(Program { rules })
}

/// Parse exactly one rule.
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let prog = parse_program(src)?;
    if prog.rules.len() != 1 {
        return err(format!("expected 1 rule, found {}", prog.rules.len()));
    }
    Ok(prog.rules.into_iter().next().unwrap())
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The current rule's constants, by slot.
    consts: Vec<String>,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        match self.bump() {
            Some(ref got) if got == t => Ok(()),
            Some(got) => err(format!("expected '{t}', found '{got}'")),
            None => err(format!("expected '{t}', found end of input")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(got) => err(format!("expected identifier, found '{got}'")),
            None => err("expected identifier, found end of input"),
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let head = self.head()?;
        self.expect(&Token::Implies)?;
        let mut body = vec![self.atom()?];
        while self.eat(&Token::Comma) {
            body.push(self.atom()?);
        }
        let agg = if self.eat(&Token::Semicolon) {
            Some(self.agg_clause()?)
        } else {
            None
        };
        self.expect(&Token::Dot)?;
        Ok(Rule {
            head,
            body,
            agg,
            consts: std::mem::take(&mut self.consts),
        })
    }

    fn head(&mut self) -> Result<HeadAtom, ParseError> {
        let relation = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut key_vars = Vec::new();
        let mut annotation = None;
        if !self.eat(&Token::RParen) {
            // Key vars until ';' or ')'.
            if self.peek() != Some(&Token::Semicolon) {
                key_vars.push(self.ident()?);
                while self.eat(&Token::Comma) {
                    key_vars.push(self.ident()?);
                }
            }
            if self.eat(&Token::Semicolon) {
                let name = self.ident()?;
                self.expect(&Token::Colon)?;
                let ty = self.ident()?;
                annotation = Some(Annotation { name, ty });
            }
            self.expect(&Token::RParen)?;
        }
        let recursion = if self.eat(&Token::Star) {
            if self.eat(&Token::LBracket) {
                let kind = self.ident()?;
                self.expect(&Token::Eq)?;
                let n = match self.bump() {
                    Some(Token::Int(n)) => n as f64,
                    Some(Token::Number(n)) => n,
                    other => {
                        return err(format!(
                            "expected number in recursion bound, found {other:?}"
                        ))
                    }
                };
                self.expect(&Token::RBracket)?;
                match kind.as_str() {
                    "i" => Some(Recursion::Iterations(n as u32)),
                    "c" => Some(Recursion::Epsilon(n)),
                    other => return err(format!("unknown recursion criterion '{other}'")),
                }
            } else {
                Some(Recursion::Fixpoint)
            }
        } else {
            None
        };
        Ok(HeadAtom {
            relation,
            key_vars,
            annotation,
            recursion,
        })
    }

    fn atom(&mut self) -> Result<BodyAtom, ParseError> {
        let relation = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut terms = vec![self.term()?];
        while self.eat(&Token::Comma) {
            terms.push(self.term()?);
        }
        self.expect(&Token::RParen)?;
        Ok(BodyAtom { relation, terms })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let value = match self.bump() {
            Some(Token::Ident(s)) => return Ok(Term::Var(s)),
            Some(Token::Str(s)) => s,
            Some(Token::Int(n)) => n.to_string(),
            Some(Token::Number(n)) => format_const(n),
            other => return err(format!("expected term, found {other:?}")),
        };
        // Lift the constant into its slot: equal values share one.
        let slot = match self.consts.iter().position(|c| *c == value) {
            Some(k) => k,
            None => {
                self.consts.push(value);
                self.consts.len() - 1
            }
        };
        Ok(Term::Const(slot))
    }

    fn agg_clause(&mut self) -> Result<AggExpr, ParseError> {
        let result_var = self.ident()?;
        self.expect(&Token::Eq)?;
        let expr = self.expr()?;
        Ok(AggExpr { result_var, expr })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unit()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unit()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unit(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Int(n)) => Ok(Expr::Num(n as f64)),
            Some(Token::Number(n)) => Ok(Expr::Num(n)),
            Some(Token::Ident(name)) => Ok(Expr::ScalarRef(name)),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::AggOpen) => {
                let op_name = self.ident()?;
                let op = AggOp::parse(&op_name).ok_or_else(|| ParseError {
                    message: format!("unknown aggregate '{op_name}'"),
                })?;
                self.expect(&Token::LParen)?;
                let mut vars = Vec::new();
                if self.eat(&Token::Star) {
                    // COUNT(*) — empty var list.
                } else {
                    vars.push(self.ident()?);
                    while self.eat(&Token::Comma) {
                        vars.push(self.ident()?);
                    }
                }
                self.expect(&Token::RParen)?;
                self.expect(&Token::AggClose)?;
                Ok(Expr::Agg(op, vars))
            }
            other => err(format!("expected expression, found {other:?}")),
        }
    }
}

/// Render a decimal constant the way the dictionary will see it (whole
/// values without a trailing `.0`).
fn format_const(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle() {
        let r = parse_rule("Triangle(x,y,z) :- R(x,y),S(y,z),T(x,z).").unwrap();
        assert_eq!(r.head.relation, "Triangle");
        assert_eq!(r.head.key_vars, vec!["x", "y", "z"]);
        assert_eq!(r.body.len(), 3);
        assert!(r.agg.is_none());
        assert_eq!(r.body_vars(), vec!["x", "y", "z"]);
    }

    #[test]
    fn count_triangle() {
        let r =
            parse_rule("CountTriangle(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.").unwrap();
        assert!(r.head.key_vars.is_empty());
        assert_eq!(r.head.annotation.as_ref().unwrap().name, "w");
        let agg = r.agg.unwrap();
        assert_eq!(agg.expr, Expr::Agg(AggOp::Count, vec![]));
    }

    #[test]
    fn pagerank_recursive() {
        let r = parse_rule(
            "PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.",
        )
        .unwrap();
        assert_eq!(r.head.recursion, Some(Recursion::Iterations(5)));
        assert!(r.is_recursive());
        let agg = r.agg.unwrap();
        assert_eq!(agg.expr.agg_op(), Some(AggOp::Sum));
        assert_eq!(agg.expr.eval(1.0, &|_| None), Some(1.0));
    }

    #[test]
    fn sssp_fixpoint() {
        let r = parse_rule("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.").unwrap();
        assert_eq!(r.head.recursion, Some(Recursion::Fixpoint));
        let agg = r.agg.unwrap();
        assert_eq!(agg.expr.eval(3.0, &|_| None), Some(4.0));
    }

    #[test]
    fn selection_string_and_number() {
        let r = parse_rule("Q(x) :- Edge('start',x),P(x,7).").unwrap();
        assert_eq!(r.body[0].terms[0], Term::Const(0));
        assert_eq!(r.body[1].terms[1], Term::Const(1));
        assert_eq!(r.consts, vec!["start", "7"]);
    }

    #[test]
    fn constants_are_lifted_into_slots_per_rule() {
        // Equal values share a slot whatever their spelling (`7`, `'7'`,
        // `007`); each rule numbers its own from 0.
        let p = parse_program("A(x) :- E('7',x),E(x,7),E(007,'b'). B(y) :- E('b',y).").unwrap();
        let slots =
            |r: &Rule| -> Vec<Term> { r.body.iter().flat_map(|a| a.terms.clone()).collect() };
        let x = || Term::Var("x".into());
        assert_eq!(
            slots(&p.rules[0]),
            vec![
                Term::Const(0),
                x(),
                x(),
                Term::Const(0),
                Term::Const(0),
                Term::Const(1)
            ]
        );
        assert_eq!(p.rules[0].consts, vec!["7", "b"]);
        assert_eq!(p.rules[1].body[0].terms[0], Term::Const(0));
        assert_eq!(p.rules[1].consts, vec!["b"]);
    }

    #[test]
    fn epsilon_criterion() {
        let r = parse_rule("P(x;y:float)*[c=0.001] :- E(x,z),P(z); y=<<SUM(z)>>.").unwrap();
        assert_eq!(r.head.recursion, Some(Recursion::Epsilon(0.001)));
    }

    #[test]
    fn program_multiple_rules() {
        let p = parse_program(
            "N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.\n\
             PageRank(x;y:float) :- Edge(x,z); y=1/N.",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(
            p.rules[1].agg.as_ref().unwrap().expr.scalar_refs(),
            vec!["N"]
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse_rule("T(x) :- ").is_err());
        assert!(parse_rule("T(x) R(x).").is_err());
        assert!(parse_rule("T(x) :- R(x)").is_err(), "missing dot");
        assert!(parse_rule("T(x;w) :- R(x).").is_err(), "annot needs type");
        assert!(parse_rule("T(;w:long) :- R(x); w=<<MEDIAN(x)>>.").is_err());
        assert!(parse_program("").is_err());
    }

    #[test]
    fn parenthesized_expr() {
        let r = parse_rule("T(;w:float) :- R(x); w=(1+2)*3.").unwrap();
        assert_eq!(r.agg.unwrap().expr.eval(0.0, &|_| None), Some(9.0));
    }
}
