//! The predicate DSL: pypred-style strings → [`PredicateExpr`].
//!
//! Both exemplar workloads behind the paper drive evaluation from
//! predicate *strings* (`"fraud_free and (image_ok or not vip)"`), so the
//! serving tier needs a parser, not just combinators. The grammar is the
//! boolean core of pypred:
//!
//! ```text
//! expr    := or_expr
//! or_expr := and_expr ( "or" and_expr )*
//! and_expr:= not_expr ( "and" not_expr )*
//! not_expr:= "not" not_expr | primary
//! primary := "(" or_expr ")" | IDENT
//! IDENT   := [A-Za-z_][A-Za-z0-9_]*        (except the three keywords)
//! ```
//!
//! Precedence is `not` > `and` > `or` (so
//! `a or not b and c` ≡ `a or ((not b) and c)`), keywords are lowercase,
//! and whitespace separates tokens. Leaf identifiers carry no meaning
//! here: a caller-supplied [`UdfRegistry`] resolves each name to a
//! [`PredicateExpr`] (usually a single costed leaf; a registry may expand
//! a name into a whole subexpression). Unresolvable names are parse
//! errors, not runtime surprises.
//!
//! Every failure is a typed [`ParseError`] with a byte position — the
//! engine maps it to `EngineError::BadExpression`, so a bad predicate
//! string is a 400, never a panic:
//!
//! ```
//! use expred_udf::{parse_predicate, OracleRegistry};
//!
//! let registry = OracleRegistry::new();
//! let expr = parse_predicate("fraud_free and (image_ok or not vip)", &registry).unwrap();
//! assert_eq!(expr.leaf_count(), 3);
//! assert!(parse_predicate("fraud_free and (oops", &registry).is_err());
//! ```
//!
//! Parsed expressions remember their leaf names, so
//! [`PredicateExpr::render`] prints an equivalent string back
//! (`parse(render(e))` preserves the fingerprint and every answer).

use crate::expr::{Node, PredicateExpr};
use crate::udf::OracleUdf;
use std::collections::HashMap;

/// What went wrong, positioned at a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the problem was detected.
    pub position: usize,
    /// The specific failure.
    pub kind: ParseErrorKind,
}

/// The specific parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input contained no tokens at all.
    EmptyInput,
    /// A character no token may contain (e.g. `&`, `!`).
    UnexpectedChar(char),
    /// A well-formed token in a position the grammar forbids
    /// (e.g. `and` where an operand is required).
    UnexpectedToken(String),
    /// Input ended while an operand or `)` was still required.
    UnexpectedEnd,
    /// A `)` with no matching `(`.
    UnmatchedParen,
    /// An identifier the [`UdfRegistry`] could not resolve.
    UnknownLeaf(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: ", self.position)?;
        match &self.kind {
            ParseErrorKind::EmptyInput => write!(f, "empty predicate"),
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ParseErrorKind::UnexpectedToken(t) => write!(f, "unexpected token {t:?}"),
            ParseErrorKind::UnexpectedEnd => write!(f, "unexpected end of predicate"),
            ParseErrorKind::UnmatchedParen => write!(f, "unmatched ')'"),
            ParseErrorKind::UnknownLeaf(name) => write!(f, "unknown predicate name {name:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Resolves DSL leaf names to expressions. The parser asks once per
/// occurrence; a registry may return a single costed leaf (the common
/// case — see [`OracleRegistry`]) or expand a name into a whole
/// subexpression (macro-style).
pub trait UdfRegistry {
    /// The expression `name` stands for, or `None` if unknown (the
    /// parser reports [`ParseErrorKind::UnknownLeaf`]).
    fn resolve(&self, name: &str) -> Option<PredicateExpr>;
}

/// Any map of prepared expressions is a registry.
impl UdfRegistry for HashMap<String, PredicateExpr> {
    fn resolve(&self, name: &str) -> Option<PredicateExpr> {
        self.get(name).cloned()
    }
}

/// The serving tier's registry: every identifier resolves to an
/// [`OracleUdf`] leaf reading the boolean column of that name, at
/// `default_cost` unless [`OracleRegistry::with_cost`] declared one.
/// Column existence is checked later by strategy validation (the parser
/// cannot see the table).
#[derive(Debug, Clone)]
pub struct OracleRegistry {
    default_cost: f64,
    costs: HashMap<String, f64>,
}

impl OracleRegistry {
    /// Every name resolves at [`crate::DEFAULT_LEAF_COST`].
    pub fn new() -> Self {
        Self::with_default_cost(crate::expr::DEFAULT_LEAF_COST)
    }

    /// Every name resolves at `default_cost` unless overridden.
    pub fn with_default_cost(default_cost: f64) -> Self {
        Self {
            default_cost,
            costs: HashMap::new(),
        }
    }

    /// Declares a per-name evaluation cost.
    pub fn with_cost(mut self, name: impl Into<String>, cost: f64) -> Self {
        self.costs.insert(name.into(), cost);
        self
    }
}

impl Default for OracleRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl UdfRegistry for OracleRegistry {
    fn resolve(&self, name: &str) -> Option<PredicateExpr> {
        let cost = self.costs.get(name).copied().unwrap_or(self.default_cost);
        Some(PredicateExpr::udf_with_cost(OracleUdf::new(name), cost))
    }
}

/// Parses a pypred-style predicate string (see the module docs for the
/// grammar), resolving each identifier through `registry`.
pub fn parse_predicate(
    input: &str,
    registry: &dyn UdfRegistry,
) -> Result<PredicateExpr, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens: &tokens,
        next: 0,
        registry,
        end: input.len(),
    };
    let node = parser.or_expr()?;
    if let Some(tok) = parser.peek() {
        return Err(match tok.kind {
            TokenKind::RParen => ParseError {
                position: tok.position,
                kind: ParseErrorKind::UnmatchedParen,
            },
            _ => ParseError {
                position: tok.position,
                kind: ParseErrorKind::UnexpectedToken(tok.text.to_string()),
            },
        });
    }
    Ok(PredicateExpr::from_node(node))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKind {
    And,
    Or,
    Not,
    LParen,
    RParen,
    Ident,
}

#[derive(Debug)]
struct Token<'a> {
    kind: TokenKind,
    text: &'a str,
    position: usize,
}

fn tokenize(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(pos, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '(' || c == ')' {
            chars.next();
            tokens.push(Token {
                kind: if c == '(' {
                    TokenKind::LParen
                } else {
                    TokenKind::RParen
                },
                text: &input[pos..pos + 1],
                position: pos,
            });
        } else if c.is_ascii_alphabetic() || c == '_' {
            let mut end = pos;
            while let Some(&(i, c)) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    end = i + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let text = &input[pos..end];
            let kind = match text {
                "and" => TokenKind::And,
                "or" => TokenKind::Or,
                "not" => TokenKind::Not,
                _ => TokenKind::Ident,
            };
            tokens.push(Token {
                kind,
                text,
                position: pos,
            });
        } else {
            return Err(ParseError {
                position: pos,
                kind: ParseErrorKind::UnexpectedChar(c),
            });
        }
    }
    if tokens.is_empty() {
        return Err(ParseError {
            position: 0,
            kind: ParseErrorKind::EmptyInput,
        });
    }
    Ok(tokens)
}

struct Parser<'a, 'r> {
    tokens: &'a [Token<'a>],
    next: usize,
    registry: &'r dyn UdfRegistry,
    /// Byte length of the input, for positioning `UnexpectedEnd`.
    end: usize,
}

impl<'a> Parser<'a, '_> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.next)
    }

    fn advance(&mut self) -> Option<&'a Token<'a>> {
        let tok = self.tokens.get(self.next)?;
        self.next += 1;
        Some(tok)
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek().is_some_and(|t| t.kind == kind) {
            self.next += 1;
            true
        } else {
            false
        }
    }

    fn or_expr(&mut self) -> Result<Node, ParseError> {
        let mut parts = vec![self.and_expr()?];
        while self.eat(TokenKind::Or) {
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Node::Or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<Node, ParseError> {
        let mut parts = vec![self.not_expr()?];
        while self.eat(TokenKind::And) {
            parts.push(self.not_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Node::And(parts)
        })
    }

    fn not_expr(&mut self) -> Result<Node, ParseError> {
        if self.eat(TokenKind::Not) {
            // `not not x` cancels, matching the `!` combinator.
            return Ok(match self.not_expr()? {
                Node::Not(inner) => *inner,
                node => Node::Not(Box::new(node)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Node, ParseError> {
        let Some(tok) = self.advance() else {
            return Err(ParseError {
                position: self.end,
                kind: ParseErrorKind::UnexpectedEnd,
            });
        };
        match tok.kind {
            TokenKind::LParen => {
                let open_position = tok.position;
                let node = self.or_expr()?;
                if self.eat(TokenKind::RParen) {
                    Ok(node)
                } else {
                    // Report the unclosed `(`: by construction the next
                    // token (if any) already failed to continue the
                    // subexpression, so the open paren is the problem.
                    Err(match self.peek() {
                        Some(next) => ParseError {
                            position: next.position,
                            kind: ParseErrorKind::UnexpectedToken(next.text.to_string()),
                        },
                        None => ParseError {
                            position: open_position,
                            kind: ParseErrorKind::UnexpectedEnd,
                        },
                    })
                }
            }
            TokenKind::Ident => match self.registry.resolve(tok.text) {
                Some(expr) => Ok(expr.with_leaf_name(tok.text).node),
                None => Err(ParseError {
                    position: tok.position,
                    kind: ParseErrorKind::UnknownLeaf(tok.text.to_string()),
                }),
            },
            TokenKind::RParen => Err(ParseError {
                position: tok.position,
                kind: ParseErrorKind::UnmatchedParen,
            }),
            TokenKind::And | TokenKind::Or | TokenKind::Not => Err(ParseError {
                position: tok.position,
                kind: ParseErrorKind::UnexpectedToken(tok.text.to_string()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTracker;
    use crate::expr::{evaluate_expr, Pred};
    use crate::udf::BooleanUdf;
    use expred_table::{DataType, Field, RowSet, Schema, Table, Value};

    fn parse(input: &str) -> Result<PredicateExpr, ParseError> {
        parse_predicate(input, &OracleRegistry::new())
    }

    fn combinator(input: &str) -> PredicateExpr {
        parse(input).unwrap_or_else(|e| panic!("{input:?}: {e}"))
    }

    #[test]
    fn parses_leaves_operators_and_parens() {
        assert_eq!(combinator("a").leaf_count(), 1);
        assert_eq!(combinator("a and b and c").leaf_count(), 3);
        assert_eq!(
            combinator("fraud_free and (image_ok or not vip)").leaf_count(),
            3
        );
        assert_eq!(combinator("((a))").leaf_count(), 1);
        assert_eq!(
            combinator("not not a").fingerprint(),
            combinator("a").fingerprint()
        );
    }

    #[test]
    fn precedence_is_not_over_and_over_or() {
        let reg = OracleRegistry::new();
        let sugar = parse_predicate("a or not b and c", &reg).unwrap();
        let explicit = parse_predicate("a or ((not b) and c)", &reg).unwrap();
        assert_eq!(sugar.fingerprint(), explicit.fingerprint());
        let left = parse_predicate("(a or not b) and c", &reg).unwrap();
        assert_ne!(sugar.fingerprint(), left.fingerprint());
    }

    #[test]
    fn parsed_trees_match_combinator_built_trees() {
        let leaf = |n: &str| Pred::udf(OracleUdf::new(n));
        let built = leaf("a").and(leaf("b").or(leaf("c").not()));
        assert_eq!(
            combinator("a and (b or not c)").fingerprint(),
            built.fingerprint()
        );
        // Chained same-op parses flatten exactly like the combinators.
        assert_eq!(
            combinator("a and b and c").fingerprint(),
            leaf("a").and(leaf("b")).and(leaf("c")).fingerprint()
        );
    }

    #[test]
    fn registry_costs_and_custom_registries_apply() {
        let reg = OracleRegistry::with_default_cost(2.0).with_cost("pricey", 50.0);
        let expr = parse_predicate("cheap and pricey", &reg).unwrap();
        assert_eq!(expr.cost(), 52.0);

        let mut macros: HashMap<String, PredicateExpr> = HashMap::new();
        macros.insert(
            "combo".to_string(),
            Pred::udf(OracleUdf::new("a")).or(Pred::udf(OracleUdf::new("b"))),
        );
        let expanded = parse_predicate("not combo", &macros).unwrap();
        assert_eq!(expanded.leaf_count(), 2);
        assert_eq!(
            expanded.render(),
            None,
            "a macro expansion has no single leaf to name"
        );
        assert!(parse_predicate("combo and other", &macros).is_err());
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        for input in [
            "a",
            "not a",
            "a and b",
            "a or b and not c",
            "(a or b) and c",
            "not (a or b) and not not c or d",
            "a and b and (c or d or not e)",
        ] {
            let expr = combinator(input);
            let rendered = expr.render().expect("parsed leaves are named");
            let reparsed = combinator(&rendered);
            assert_eq!(
                reparsed.fingerprint(),
                expr.fingerprint(),
                "{input:?} rendered as {rendered:?}"
            );
        }
    }

    #[test]
    fn parsed_expressions_evaluate() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Bool),
            Field::new("b", DataType::Bool),
        ]);
        let rows = [(true, true), (true, false), (false, true), (false, false)]
            .iter()
            .map(|&(a, b)| vec![Value::Bool(a), Value::Bool(b)])
            .collect();
        let t = Table::from_rows(schema, rows).unwrap();
        let expr = combinator("a and not b");
        let tracker = CostTracker::new();
        let got = evaluate_expr(
            &expr,
            &t,
            &RowSet::full(4),
            &tracker,
            &expred_exec::ExecContext::sequential(),
        )
        .unwrap();
        assert_eq!(got.to_vec(), vec![1]);
        assert_eq!(BooleanUdf::required_columns(&expr), vec!["a", "b"]);
    }

    #[test]
    fn error_paths_are_typed_and_positioned() {
        let err = |input: &str| parse(input).expect_err(input);
        assert_eq!(err("").kind, ParseErrorKind::EmptyInput);
        assert_eq!(err("   ").kind, ParseErrorKind::EmptyInput);
        assert_eq!(err("a & b").kind, ParseErrorKind::UnexpectedChar('&'));
        assert_eq!(err("a & b").position, 2);
        assert_eq!(
            err("a and and b").kind,
            ParseErrorKind::UnexpectedToken("and".into())
        );
        assert_eq!(err("a b").kind, ParseErrorKind::UnexpectedToken("b".into()));
        assert_eq!(err("a and").kind, ParseErrorKind::UnexpectedEnd);
        assert_eq!(err("not").kind, ParseErrorKind::UnexpectedEnd);
        assert_eq!(err("(a or b").kind, ParseErrorKind::UnexpectedEnd);
        assert_eq!(err("a)").kind, ParseErrorKind::UnmatchedParen);
        assert_eq!(err(")").kind, ParseErrorKind::UnmatchedParen);
        assert_eq!(err("()").kind, ParseErrorKind::UnmatchedParen);
        assert_eq!(
            err("and a").kind,
            ParseErrorKind::UnexpectedToken("and".into())
        );
        // Keywords are lowercase; `AND` is just an (unknown-free) ident —
        // here every ident resolves, so this parses as `a AND b` idents?
        // No: `a AND b` is three idents in a row — a token error.
        assert_eq!(
            err("a AND b").kind,
            ParseErrorKind::UnexpectedToken("AND".into())
        );
        // Unknown leaves are typed errors under a closed registry.
        let closed: HashMap<String, PredicateExpr> = HashMap::new();
        let unknown = parse_predicate("ghost", &closed).expect_err("closed registry");
        assert_eq!(unknown.kind, ParseErrorKind::UnknownLeaf("ghost".into()));
        assert!(unknown.to_string().contains("ghost"));
        // Errors display with their byte position.
        assert!(err("a and").to_string().contains("at byte 5"));
    }
}
