//! Abstract syntax tree for the EmptyHeaded query language.

pub use eh_semiring::AggOp;

/// A term in a body atom: a variable or a constant (selection predicate).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// Named variable.
    Var(String),
    /// Constant — an equality selection on that position — held as its
    /// slot `$k` in [`Rule::consts`]. Plans read only the slot, so one
    /// plan serves every binding of the rule's constants.
    Const(usize),
}

impl Term {
    /// Variable name, if this term is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

/// One relation occurrence in a rule body, e.g. `R(x,y)` or `Edge('s',x)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BodyAtom {
    /// Relation name.
    pub relation: String,
    /// Positional terms.
    pub terms: Vec<Term>,
}

impl BodyAtom {
    /// The variables of this atom, in positional order (constants skipped).
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// Positions holding constants: `(position, slot)`.
    pub fn selections(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.terms.iter().enumerate().filter_map(|(i, t)| match t {
            Term::Const(k) => Some((i, *k)),
            Term::Var(_) => None,
        })
    }
}

/// Annotation declaration in a rule head, e.g. the `w:long` of
/// `CountTriangle(;w:long)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Annotation {
    /// Alias of the annotation value.
    pub name: String,
    /// Declared type (informational: `long`, `int`, `float`...).
    pub ty: String,
}

/// Recursion marker on the head (`*`, `*[i=5]`, `*[c=0.001]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Recursion {
    /// Iterate until the relation stops changing.
    Fixpoint,
    /// Iterate a fixed number of times (`*[i=N]`).
    Iterations(u32),
    /// Iterate until the largest annotation delta drops below epsilon
    /// (`*[c=eps]`, a user-defined convergence criterion).
    Epsilon(f64),
}

/// Rule head, e.g. `PageRank(x; y:float)*[i=5]`.
#[derive(Clone, Debug, PartialEq)]
pub struct HeadAtom {
    /// Output relation name.
    pub relation: String,
    /// Group-by (key) variables before the `;`.
    pub key_vars: Vec<String>,
    /// Optional annotation declaration after the `;`.
    pub annotation: Option<Annotation>,
    /// Optional recursion marker.
    pub recursion: Option<Recursion>,
}

/// Arithmetic expression on the aggregate side of the rule, e.g.
/// `0.15 + 0.85 * <<SUM(z)>>` or `1/N`.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// Reference to a scalar relation (e.g. `N` in `1/N`).
    ScalarRef(String),
    /// Aggregate node; the var list is empty for `COUNT(*)`.
    Agg(AggOp, Vec<String>),
    /// Binary arithmetic.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Binary arithmetic operators in aggregate expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl Expr {
    /// The aggregate operator inside this expression, if any.
    pub fn agg_op(&self) -> Option<AggOp> {
        match self {
            Expr::Agg(op, _) => Some(*op),
            Expr::Binary(_, l, r) => l.agg_op().or_else(|| r.agg_op()),
            _ => None,
        }
    }

    /// Scalar relation names referenced by this expression.
    pub fn scalar_refs(&self) -> Vec<&str> {
        match self {
            Expr::ScalarRef(n) => vec![n.as_str()],
            Expr::Binary(_, l, r) => {
                let mut v = l.scalar_refs();
                v.extend(r.scalar_refs());
                v
            }
            _ => Vec::new(),
        }
    }

    /// Evaluate with `agg_value` substituted for the aggregate node and
    /// `scalars` resolving scalar relation references.
    pub fn eval(&self, agg_value: f64, scalars: &dyn Fn(&str) -> Option<f64>) -> Option<f64> {
        Some(match self {
            Expr::Num(n) => *n,
            Expr::ScalarRef(n) => scalars(n)?,
            Expr::Agg(..) => agg_value,
            Expr::Binary(op, l, r) => {
                let (a, b) = (l.eval(agg_value, scalars)?, r.eval(agg_value, scalars)?);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                }
            }
        })
    }
}

/// Aggregation clause after the body: `w = <expr>`.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    /// The head annotation alias being defined.
    pub result_var: String,
    /// Defining expression.
    pub expr: Expr,
}

/// A single rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Head atom.
    pub head: HeadAtom,
    /// Body atoms (the multiway join).
    pub body: Vec<BodyAtom>,
    /// Optional aggregation clause.
    pub agg: Option<AggExpr>,
    /// The body's distinct constants in first-appearance order: slot `$k`
    /// of every [`Term::Const`] is `consts[k]`. Equal constants share a
    /// slot, so the equality pattern a plan may exploit is part of the
    /// rule's shape ([`Program::shape`]); the values are not.
    pub consts: Vec<String>,
}

impl Rule {
    /// All distinct body variables, in first-occurrence order.
    pub fn body_vars(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for atom in &self.body {
            for v in atom.vars() {
                if seen.insert(v.to_string()) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// True if the head relation also appears in the body (recursive rule).
    pub fn is_recursive(&self) -> bool {
        self.body.iter().any(|a| a.relation == self.head.relation)
    }
}

/// A program: an ordered list of rules (later rules may consume the
/// relations earlier rules define, as in the PageRank three-liner).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Rules in source order.
    pub rules: Vec<Rule>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval() {
        // 0.15 + 0.85 * <<SUM(z)>>
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Num(0.15)),
            Box::new(Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::Num(0.85)),
                Box::new(Expr::Agg(AggOp::Sum, vec!["z".into()])),
            )),
        );
        assert!((e.eval(2.0, &|_| None).unwrap() - 1.85).abs() < 1e-12);
        assert_eq!(e.agg_op(), Some(AggOp::Sum));
    }

    #[test]
    fn expr_scalar_ref() {
        // 1 / N
        let e = Expr::Binary(
            BinOp::Div,
            Box::new(Expr::Num(1.0)),
            Box::new(Expr::ScalarRef("N".into())),
        );
        assert_eq!(e.eval(0.0, &|n| (n == "N").then_some(4.0)), Some(0.25));
        assert_eq!(e.eval(0.0, &|_| None), None);
        assert_eq!(e.scalar_refs(), vec!["N"]);
    }

    #[test]
    fn body_atom_helpers() {
        let atom = BodyAtom {
            relation: "Edge".into(),
            terms: vec![Term::Const(0), Term::Var("x".into())],
        };
        assert_eq!(atom.vars().collect::<Vec<_>>(), vec!["x"]);
        assert_eq!(atom.selections().collect::<Vec<_>>(), vec![(0, 0)]);
    }

    #[test]
    fn rule_body_vars_dedup() {
        let rule = Rule {
            head: HeadAtom {
                relation: "T".into(),
                key_vars: vec!["x".into()],
                annotation: None,
                recursion: None,
            },
            body: vec![
                BodyAtom {
                    relation: "R".into(),
                    terms: vec![Term::Var("x".into()), Term::Var("y".into())],
                },
                BodyAtom {
                    relation: "S".into(),
                    terms: vec![Term::Var("y".into()), Term::Var("z".into())],
                },
            ],
            agg: None,
            consts: Vec::new(),
        };
        assert_eq!(rule.body_vars(), vec!["x", "y", "z"]);
        assert!(!rule.is_recursive());
    }
}
