//! EmptyHeaded's datalog-like query language (paper §2.3, Table 1).
//!
//! The language supports conjunctive queries (joins, projections,
//! selections), semiring-annotated aggregations (`<<COUNT(*)>>`,
//! `<<SUM(z)>>`, `<<MIN(w)>>`, ...), and a limited Kleene-star recursion
//! with fixpoint or fixed-iteration (`*[i=5]`) convergence criteria.
//!
//! ```text
//! Triangle(x,y,z) :- R(x,y),S(y,z),T(x,z).
//! CountTriangle(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.
//! PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z);
//!                              y=0.15+0.85*<<SUM(z)>>.
//! SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod print;
pub mod validate;

pub use ast::{AggExpr, Annotation, BodyAtom, Expr, HeadAtom, Program, Recursion, Rule, Term};
pub use lexer::{Lexer, Token};
pub use parser::{parse_program, parse_rule, ParseError};
pub use validate::{validate_rule, ValidationError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggOp;

    #[test]
    fn paper_table1_queries_all_parse() {
        let queries = [
            "Triangle(x,y,z) :- R(x,y),S(y,z),T(x,z).",
            "FourClique(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w),V(y,w),Q(z,w).",
            "Lollipop(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w).",
            "Barbell(x,y,z,xp,yp,zp) :- R(x,y),S(y,z),T(x,z),U(x,xp),R2(xp,yp),S2(yp,zp),T2(xp,zp).",
            "CountTriangle(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.",
            "N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.",
            "PageRank(x;y:float) :- Edge(x,z); y=1/N.",
            "PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.",
            "SSSP(x;y:int) :- Edge('start',x); y=1.",
            "SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.",
            "S4Clique(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w),V(y,w),Q(z,w),P(x,'node').",
        ];
        for q in queries {
            let rule = parse_rule(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            validate_rule(&rule).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn aggregation_shape() {
        let r =
            parse_rule("CountTriangle(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.").unwrap();
        assert!(r.head.key_vars.is_empty());
        let ann = r.head.annotation.as_ref().unwrap();
        assert_eq!(ann.name, "w");
        assert_eq!(ann.ty, "long");
        let agg = r.agg.as_ref().unwrap();
        assert_eq!(agg.result_var, "w");
        assert!(matches!(
            agg.expr,
            Expr::Agg(AggOp::Count, ref vars) if vars.is_empty()
        ));
    }

    #[test]
    fn recursion_annotations() {
        let r = parse_rule(
            "PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z); y=0.15+0.85*<<SUM(z)>>.",
        )
        .unwrap();
        assert_eq!(r.head.recursion, Some(Recursion::Iterations(5)));
        let r = parse_rule("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.").unwrap();
        assert_eq!(r.head.recursion, Some(Recursion::Fixpoint));
        let r = parse_rule("T(x,y) :- R(x,y).").unwrap();
        assert_eq!(r.head.recursion, None);
    }

    #[test]
    fn selection_constants() {
        let r = parse_rule("Q(x) :- Edge('start',x).").unwrap();
        assert_eq!(r.body[0].terms[0], Term::Const(0));
        assert_eq!(r.consts, vec!["start"]);
        assert_eq!(r.body[0].terms[1], Term::Var("x".to_string()));
    }
}
