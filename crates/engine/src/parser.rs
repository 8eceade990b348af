//! Recursive-descent parser for the DBWipes SQL subset.
//!
//! The grammar covers exactly the query shape the paper's §2.1 problem
//! statement assumes: a single-block aggregate SELECT with WHERE, GROUP BY,
//! ORDER BY and LIMIT. Scalar expressions support the operators the ranked
//! predicates use (`=`, `<>`, `<`, `<=`, `>`, `>=`, `BETWEEN`, `IN`,
//! `LIKE '%...%'`, `IS [NOT] NULL`, boolean connectives, arithmetic).

use crate::ast::{
    AggregateArg, AggregateCall, AggregateFunc, OrderBy, SelectExpr, SelectItem, SelectStatement,
    SortOrder,
};
use crate::error::EngineError;
use crate::lexer::{tokenize, Token, TokenKind};
use dbwipes_storage::{Expr, Value};
use std::ops::{Add as _, Div as _, Mul as _, Neg as _, Not as _, Sub as _};

/// Parses a single SELECT statement.
pub fn parse_select(sql: &str) -> Result<SelectStatement, EngineError> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_select()?;
    p.skip_semicolons();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a standalone scalar/boolean expression (used by the dashboard to
/// accept hand-written filters and by tests).
pub fn parse_expr(text: &str) -> Result<Expr, EngineError> {
    let mut p = Parser::new(text)?;
    let (e, _) = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// How deep a scalar or boolean expression may nest. Every operator,
/// `NOT`, sign and pair of parentheses is a level, so a chain of n `AND`s
/// is n levels over its operands. Past the cap a statement is a parse
/// error: the parser and every later walk of the tree (validation,
/// evaluation, rendering, drop) recurse once a level, and a request runs
/// on one worker thread's stack.
pub const MAX_EXPR_DEPTH: usize = 128;

/// An expression and how many levels deep it nests.
type Parsed = Result<(Expr, usize), EngineError>;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels [`Parser::nested`] has open on the current path.
    open: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, EngineError> {
        Ok(Parser { tokens: tokenize(input)?, pos: 0, open: 0 })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn position(&self) -> usize {
        self.tokens[self.pos].position
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), EngineError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(EngineError::parse(format!("expected keyword {kw}"), self.position()))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), EngineError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(EngineError::parse(format!("expected {what}"), self.position()))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, EngineError> {
        match self.peek().clone() {
            TokenKind::Ident(name) if !is_reserved(&name) => {
                self.advance();
                Ok(name)
            }
            _ => Err(EngineError::parse(format!("expected {what}"), self.position())),
        }
    }

    fn skip_semicolons(&mut self) {
        while self.eat(&TokenKind::Semicolon) {}
    }

    fn expect_eof(&mut self) -> Result<(), EngineError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(EngineError::parse("unexpected trailing input", self.position()))
        }
    }

    fn parse_select(&mut self) -> Result<SelectStatement, EngineError> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.parse_select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }
        self.expect_keyword("FROM")?;
        let table = self.expect_ident("table name")?;

        let where_clause =
            if self.eat_keyword("WHERE") { Some(self.parse_expr()?.0) } else { None };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expect_ident("group-by column")?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expect_ident("group-by column")?);
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let target = match self.peek().clone() {
                    TokenKind::Int(n) => {
                        self.advance();
                        n.to_string()
                    }
                    _ => self.expect_ident("order-by column")?,
                };
                let order = if self.eat_keyword("DESC") {
                    SortOrder::Desc
                } else {
                    let _ = self.eat_keyword("ASC");
                    SortOrder::Asc
                };
                order_by.push(OrderBy { target, order });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                TokenKind::Int(n) if n >= 0 => Some(n as usize),
                _ => return Err(EngineError::parse("expected LIMIT count", self.position())),
            }
        } else {
            None
        };

        Ok(SelectStatement { items, table, where_clause, group_by, order_by, limit })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, EngineError> {
        // Aggregate call?
        let expr = if let TokenKind::Ident(name) = self.peek().clone() {
            if AggregateFunc::from_name(&name).is_some()
                && matches!(self.peek_at(1), TokenKind::LParen)
            {
                let func = AggregateFunc::from_name(&name).expect("checked");
                self.advance(); // name
                self.advance(); // (
                let arg = if self.eat(&TokenKind::Star) {
                    AggregateArg::Star
                } else {
                    AggregateArg::Expr(self.parse_expr()?.0)
                };
                self.expect(TokenKind::RParen, "')' after aggregate argument")?;
                SelectExpr::Aggregate(AggregateCall { func, arg })
            } else {
                self.parse_select_scalar()?
            }
        } else {
            self.parse_select_scalar()?
        };

        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident("alias")?)
        } else {
            match self.peek().clone() {
                TokenKind::Ident(name) if !is_reserved(&name) => {
                    self.advance();
                    Some(name)
                }
                _ => None,
            }
        };
        Ok(SelectItem { expr, alias })
    }

    fn parse_select_scalar(&mut self) -> Result<SelectExpr, EngineError> {
        let (e, _) = self.parse_expr()?;
        Ok(match e {
            Expr::Column(c) => SelectExpr::Column(c),
            other => SelectExpr::Scalar(other),
        })
    }

    /// expr := or
    fn parse_expr(&mut self) -> Parsed {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Parsed {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = self.join(left, right, Expr::or)?;
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Parsed {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = self.join(left, right, Expr::and)?;
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Parsed {
        if self.eat_keyword("NOT") {
            let (e, depth) = self.nested(Self::parse_not)?;
            Ok((e.not(), depth))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Parsed {
        let (left, dl) = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let e = if negated { left.is_not_null() } else { left.is_null() };
            return Ok((e, self.level(dl)?));
        }

        // [NOT] BETWEEN / IN / LIKE / CONTAINS
        let negated = if self.peek().is_keyword("NOT")
            && (self.peek_at(1).is_keyword("BETWEEN")
                || self.peek_at(1).is_keyword("IN")
                || self.peek_at(1).is_keyword("LIKE")
                || self.peek_at(1).is_keyword("CONTAINS"))
        {
            self.advance();
            true
        } else {
            false
        };
        let negate = |p: &Self, e: Expr, depth: usize| -> Parsed {
            if negated {
                Ok((e.not(), p.level(depth)?))
            } else {
                Ok((e, depth))
            }
        };

        if self.eat_keyword("BETWEEN") {
            let (low, d_low) = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let (high, d_high) = self.parse_additive()?;
            let depth = self.level(dl.max(d_low).max(d_high))?;
            return negate(self, left.between(low, high), depth);
        }
        if self.eat_keyword("IN") {
            self.expect(TokenKind::LParen, "'(' after IN")?;
            let (first, mut deepest) = self.nested(Self::parse_expr)?;
            let mut list = vec![first];
            while self.eat(&TokenKind::Comma) {
                let (item, d) = self.nested(Self::parse_expr)?;
                list.push(item);
                deepest = deepest.max(d);
            }
            self.expect(TokenKind::RParen, "')' after IN list")?;
            let depth = self.level(dl.max(deepest))?;
            let e = if negated { left.not_in_list(list) } else { left.in_list(list) };
            return Ok((e, depth));
        }
        if self.eat_keyword("LIKE") || self.eat_keyword("CONTAINS") {
            let pattern = match self.advance() {
                TokenKind::Str(s) => s,
                _ => return Err(EngineError::parse("expected string pattern", self.position())),
            };
            let needle = pattern.trim_matches('%').to_string();
            let depth = self.level(dl)?;
            return negate(self, left.contains(needle), depth);
        }

        let op = match self.peek() {
            TokenKind::Eq => Some(dbwipes_storage::BinaryOp::Eq),
            TokenKind::NotEq => Some(dbwipes_storage::BinaryOp::NotEq),
            TokenKind::Lt => Some(dbwipes_storage::BinaryOp::Lt),
            TokenKind::LtEq => Some(dbwipes_storage::BinaryOp::LtEq),
            TokenKind::Gt => Some(dbwipes_storage::BinaryOp::Gt),
            TokenKind::GtEq => Some(dbwipes_storage::BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return self.join((left, dl), right, |left, right| Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok((left, dl))
    }

    fn parse_additive(&mut self) -> Parsed {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op: fn(Expr, Expr) -> Expr = if self.eat(&TokenKind::Plus) {
                Expr::add
            } else if self.eat(&TokenKind::Minus) {
                Expr::sub
            } else {
                return Ok(left);
            };
            let right = self.parse_multiplicative()?;
            left = self.join(left, right, op)?;
        }
    }

    fn parse_multiplicative(&mut self) -> Parsed {
        let mut left = self.parse_unary()?;
        loop {
            let op: fn(Expr, Expr) -> Expr = if self.eat(&TokenKind::Star) {
                Expr::mul
            } else if self.eat(&TokenKind::Slash) {
                Expr::div
            } else {
                return Ok(left);
            };
            let right = self.parse_unary()?;
            left = self.join(left, right, op)?;
        }
    }

    fn parse_unary(&mut self) -> Parsed {
        if self.eat(&TokenKind::Minus) {
            // Fold negation of literals so `-5` is a literal, not an expression.
            let (inner, depth) = self.nested(Self::parse_unary)?;
            let e = match inner {
                Expr::Literal(Value::Int(v)) => Expr::Literal(Value::Int(-v)),
                Expr::Literal(Value::Float(v)) => Expr::Literal(Value::Float(-v)),
                other => other.neg(),
            };
            return Ok((e, depth));
        }
        if self.eat(&TokenKind::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Parsed {
        if self.eat(&TokenKind::LParen) {
            let parsed = self.nested(Self::parse_expr)?;
            self.expect(TokenKind::RParen, "')'")?;
            return Ok(parsed);
        }
        Ok((self.parse_leaf()?, 1))
    }

    /// A literal or a column: an expression one level deep.
    fn parse_leaf(&mut self) -> Result<Expr, EngineError> {
        let position = self.position();
        match self.advance() {
            TokenKind::Int(v) => Ok(Expr::Literal(Value::Int(v))),
            TokenKind::Float(v) => Ok(Expr::Literal(Value::Float(v))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if is_reserved(&name) {
                    return Err(EngineError::parse(format!("unexpected keyword {name}"), position));
                }
                if matches!(self.peek(), TokenKind::LParen) {
                    return Err(EngineError::parse(
                        format!("function calls are not allowed here: {name}(...)"),
                        position,
                    ));
                }
                Ok(Expr::Column(name))
            }
            other => Err(EngineError::parse(format!("unexpected token {other:?}"), position)),
        }
    }

    /// The depth of a node over children at most `below` levels deep, or
    /// the depth error once that passes [`MAX_EXPR_DEPTH`].
    fn level(&self, below: usize) -> Result<usize, EngineError> {
        if below < MAX_EXPR_DEPTH {
            return Ok(below + 1);
        }
        let message = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
        Err(EngineError::parse(message, self.position()))
    }

    /// `combine` of two parsed operands: one level over the deeper.
    fn join(
        &self,
        (left, dl): (Expr, usize),
        (right, dr): (Expr, usize),
        combine: impl FnOnce(Expr, Expr) -> Expr,
    ) -> Parsed {
        Ok((combine(left, right), self.level(dl.max(dr))?))
    }

    /// Runs `parse` one level further in — a parenthesis, `NOT`, sign or
    /// `IN` list — and counts that level. The parser's own recursion stops
    /// at the cap before it descends, however long the input.
    fn nested(&mut self, parse: fn(&mut Self) -> Parsed) -> Parsed {
        self.open = self.level(self.open)?;
        let parsed = parse(self);
        self.open -= 1;
        let (e, depth) = parsed?;
        Ok((e, self.level(depth)?))
    }
}

fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "select", "from", "where", "group", "by", "order", "limit", "and", "or", "not", "between",
        "in", "like", "contains", "is", "as", "asc", "desc",
    ];
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggregateFunc, SelectExpr};

    #[test]
    fn parses_the_intel_sensor_query() {
        let q = parse_select(
            "SELECT hour, avg(temp), stddev(temp) FROM readings WHERE temp IS NOT NULL GROUP BY hour ORDER BY hour",
        )
        .unwrap();
        assert_eq!(q.table, "readings");
        assert_eq!(q.group_by, vec!["hour".to_string()]);
        assert_eq!(q.items.len(), 3);
        assert!(matches!(q.items[0].expr, SelectExpr::Column(_)));
        assert_eq!(q.aggregates().len(), 2);
        assert_eq!(q.aggregates()[0].func, AggregateFunc::Avg);
        assert_eq!(q.aggregates()[1].func, AggregateFunc::StdDev);
        assert!(q.where_clause.is_some());
        assert_eq!(q.order_by.len(), 1);
    }

    #[test]
    fn parses_the_fec_query_with_alias_and_limit() {
        let q = parse_select(
            "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day DESC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q.items[1].alias.as_deref(), Some("total"));
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.order_by[0].order, SortOrder::Desc);
        assert!(q.to_sql().contains("'McCain'"));
    }

    #[test]
    fn parses_count_star_and_bare_aliases() {
        let q =
            parse_select("SELECT candidate, count(*) n FROM donations GROUP BY candidate").unwrap();
        assert_eq!(q.items[1].alias.as_deref(), Some("n"));
        assert!(matches!(
            q.items[1].expr,
            SelectExpr::Aggregate(AggregateCall {
                func: AggregateFunc::Count,
                arg: AggregateArg::Star
            })
        ));
    }

    #[test]
    fn parses_complex_where_clauses() {
        let e = parse_expr("sensorid = 15 AND temp BETWEEN 100 AND 130 OR memo LIKE '%SPOUSE%'")
            .unwrap();
        let s = e.to_string();
        assert!(s.contains("sensorid = 15"));
        assert!(s.contains("BETWEEN 100 AND 130"));
        assert!(s.contains("LIKE '%SPOUSE%'"));

        let e = parse_expr("NOT (a IN (1, 2, 3)) AND b IS NULL").unwrap();
        assert!(e.to_string().contains("IN (1, 2, 3)"));

        let e = parse_expr("a NOT IN (1, 2)").unwrap();
        assert!(e.to_string().contains("NOT IN"));

        let e = parse_expr("amount < -100").unwrap();
        assert!(e.to_string().contains("-100"));

        let e = parse_expr("x NOT LIKE '%refund%'").unwrap();
        assert!(e.to_string().starts_with("NOT"));

        let e = parse_expr("x NOT BETWEEN 1 AND 2").unwrap();
        assert!(e.to_string().starts_with("NOT"));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3");
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3"); // rendering loses parens but tree differs
        let t = dbwipes_storage::Table::new(
            "t",
            dbwipes_storage::Schema::of(&[("x", dbwipes_storage::DataType::Int)]),
        )
        .unwrap();
        let mut t = t;
        t.push_row(vec![dbwipes_storage::Value::Int(0)]).unwrap();
        let rid = dbwipes_storage::RowId(0);
        assert_eq!(
            parse_expr("1 + 2 * 3").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Int(7)
        );
        assert_eq!(
            parse_expr("(1 + 2) * 3").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Int(9)
        );
        assert_eq!(
            parse_expr("true AND false OR true").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Bool(true)
        );
        assert_eq!(
            parse_expr("NULL IS NULL").unwrap().eval(&t, rid).unwrap(),
            dbwipes_storage::Value::Bool(true)
        );
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_select("SELECT FROM t").is_err());
        assert!(parse_select("SELECT a b c FROM t").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT avg(temp FROM t").is_err());
        assert!(parse_select("SELECT a FROM t GROUP BY").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_select("SELECT a FROM t WHERE foo(1)").is_err());
        assert!(parse_select("SELECT a FROM t extra garbage !!!").is_err());
        assert!(parse_expr("a = ").is_err());
        assert!(parse_expr("a LIKE 5").is_err());
        assert!(parse_expr("a BETWEEN 1").is_err());
        assert!(parse_expr("WHERE").is_err());
    }

    #[test]
    fn order_by_ordinal_and_multiple_terms() {
        let q = parse_select("SELECT a, sum(x) FROM t GROUP BY a ORDER BY 2 DESC, a ASC").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].target, "2");
        assert_eq!(q.order_by[0].order, SortOrder::Desc);
        assert_eq!(q.order_by[1].order, SortOrder::Asc);
    }

    #[test]
    fn nesting_past_the_depth_cap_is_a_parse_error() {
        // A column is one level; each parenthesis, NOT, sign or operator one more.
        let parens = |n| format!("{}x{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_expr(&parens(MAX_EXPR_DEPTH - 1)).is_ok());
        let chain = |n| format!("x{}", " AND x".repeat(n));
        assert!(parse_expr(&chain(MAX_EXPR_DEPTH - 1)).is_ok());
        let cap = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
        for text in [parens(MAX_EXPR_DEPTH), chain(MAX_EXPR_DEPTH), "NOT ".repeat(1 << 18) + "x"] {
            match parse_expr(&text) {
                Err(EngineError::Parse { message, .. }) => assert_eq!(message, cap),
                other => panic!("{other:?}"),
            }
        }
    }
}
