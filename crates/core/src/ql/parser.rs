//! Recursive-descent parser for ScrubQL.
//!
//! The grammar (clauses after FROM may appear in any order, matching the
//! paper's figures which place the `@[...]` target clause before *or* after
//! `group by`):
//!
//! ```text
//! query    := SELECT select_list FROM from_list clause* [';']
//! clause   := WHERE expr
//!           | '@' '[' target ']'
//!           | GROUP BY expr (',' expr)*
//!           | WINDOW duration [SLIDE duration]
//!           | SAMPLE (HOSTS pct)? (EVENTS pct)?
//!           | START (NOW | AT int | IN duration)
//!           | DURATION duration
//! from     := ident (',' ident)* | ident (JOIN ident ON equijoin)*
//! target   := ALL | attr (= v | IN list) | target AND/OR target | NOT target
//! duration := int unit          -- e.g. 10 s, 20 m, 1 h
//! pct      := number '%' | float-in-(0,1]
//! ```

use crate::error::{ScrubError, ScrubResult};
use crate::expr::{BinOp, Expr, FieldRef, ScalarFn, UnaryOp};
use crate::value::Value;

use super::ast::{duration_ms, AggFn, QuerySpec, SampleSpec, SelectItem, StartSpec, TargetExpr};
use super::lexer::{lex, Token, TokenKind};

/// Parse a ScrubQL query string into a [`QuerySpec`].
pub fn parse_query(src: &str) -> ScrubResult<QuerySpec> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    Ok(q)
}

/// Parse just an expression (used in tests and by tooling).
pub fn parse_expr(src: &str) -> ScrubResult<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn here(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn err<T>(&self, msg: impl Into<String>) -> ScrubResult<T> {
        Err(ScrubError::Parse {
            pos: self.here(),
            msg: msg.into(),
        })
    }

    /// Is the current token the given (case-insensitive) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> ScrubResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek().describe()))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> ScrubResult<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            ))
        }
    }

    fn expect_eof(&mut self) -> ScrubResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            self.err(format!("unexpected {}", self.peek().describe()))
        }
    }

    fn ident(&mut self) -> ScrubResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {}", other.describe())),
        }
    }

    // ----- query ---------------------------------------------------------

    fn query(&mut self) -> ScrubResult<QuerySpec> {
        self.expect_kw("select")?;
        let select = self.select_list()?;
        self.expect_kw("from")?;
        let from = self.parse_from_list()?;

        let mut q = QuerySpec {
            select,
            from,
            where_clause: None,
            group_by: Vec::new(),
            window_ms: None,
            slide_ms: None,
            target: TargetExpr::All,
            sample: SampleSpec::default(),
            start: StartSpec::Now,
            duration_ms: None,
        };

        let mut saw_target = false;
        loop {
            if self.eat(&TokenKind::At) {
                if saw_target {
                    return self.err("duplicate target clause");
                }
                saw_target = true;
                self.expect(TokenKind::LBracket)?;
                q.target = self.target()?;
                self.expect(TokenKind::RBracket)?;
            } else if self.at_kw("where") {
                self.bump();
                if q.where_clause.is_some() {
                    return self.err("duplicate WHERE clause");
                }
                q.where_clause = Some(self.expr()?);
            } else if self.at_kw("group") {
                self.bump();
                self.expect_kw("by")?;
                if !q.group_by.is_empty() {
                    return self.err("duplicate GROUP BY clause");
                }
                loop {
                    q.group_by.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            } else if self.at_kw("window") {
                self.bump();
                if q.window_ms.is_some() {
                    return self.err("duplicate WINDOW clause");
                }
                q.window_ms = Some(self.duration()?);
                if self.eat_kw("slide") {
                    q.slide_ms = Some(self.duration()?);
                }
            } else if self.at_kw("sample") {
                self.bump();
                let mut any = false;
                if self.eat_kw("hosts") {
                    q.sample.host_fraction = self.fraction()?;
                    any = true;
                }
                if self.eat_kw("events") {
                    q.sample.event_fraction = self.fraction()?;
                    any = true;
                }
                if !any {
                    return self.err("SAMPLE needs `hosts <pct>` and/or `events <pct>`");
                }
            } else if self.at_kw("start") {
                self.bump();
                if self.eat_kw("now") {
                    q.start = StartSpec::Now;
                } else if self.eat_kw("at") {
                    match self.bump() {
                        TokenKind::Int(v) => q.start = StartSpec::At(v),
                        other => {
                            return self.err(format!(
                                "expected absolute start time (ms), found {}",
                                other.describe()
                            ));
                        }
                    }
                } else if self.eat_kw("in") {
                    q.start = StartSpec::In(self.duration()?);
                } else {
                    return self.err("expected `now`, `at <ms>` or `in <duration>` after START");
                }
            } else if self.at_kw("duration") {
                self.bump();
                if q.duration_ms.is_some() {
                    return self.err("duplicate DURATION clause");
                }
                q.duration_ms = Some(self.duration()?);
            } else if self.at_kw("having") {
                return Err(ScrubError::Unsupported(
                    "HAVING is not part of ScrubQL; filter in the client or tighten WHERE".into(),
                ));
            } else if self.at_kw("order") {
                return Err(ScrubError::Unsupported(
                    "ORDER BY is not part of ScrubQL; sort results in the client".into(),
                ));
            } else {
                break;
            }
        }

        self.eat(&TokenKind::Semi);
        self.expect_eof()?;
        Ok(q)
    }

    fn select_list(&mut self) -> ScrubResult<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> ScrubResult<SelectItem> {
        // Aggregates are recognized at the top of a select item (possibly
        // nested in arithmetic like `1000*AVG(impression.cost)` — see
        // Figure 13). We parse a full expression and then extract a single
        // aggregate if present.
        let expr = self.expr()?;
        let alias = self.alias()?;
        match extract_aggregate(&expr)? {
            Some((func, arg, wrapper)) => {
                if wrapper {
                    // aggregate wrapped in scalar arithmetic, e.g.
                    // 1000*AVG(x): represent as Agg with a post-scale by
                    // rewriting: keep full expr as PostExpr form.
                    Ok(SelectItem::Agg {
                        func,
                        arg,
                        alias: alias.or_else(|| Some(render_alias(&expr))),
                    })
                } else {
                    Ok(SelectItem::Agg { func, arg, alias })
                }
            }
            None => Ok(SelectItem::Expr { expr, alias }),
        }
    }

    fn alias(&mut self) -> ScrubResult<Option<String>> {
        if self.eat_kw("as") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn parse_from_list(&mut self) -> ScrubResult<Vec<String>> {
        let mut types = vec![self.ident()?];
        loop {
            if self.eat(&TokenKind::Comma) {
                types.push(self.ident()?);
            } else if self.at_kw("join") || self.at_kw("inner") || self.at_kw("left") {
                if self.eat_kw("left") || self.eat_kw("outer") || self.eat_kw("full") {
                    return Err(ScrubError::Unsupported(
                        "only inner equi-joins on the request id are supported".into(),
                    ));
                }
                self.eat_kw("inner");
                self.expect_kw("join")?;
                let rhs = self.ident()?;
                self.expect_kw("on")?;
                let cond = self.expr()?;
                let lhs_types = types.clone();
                check_equijoin_on_request_id(&cond, &lhs_types, &rhs)?;
                types.push(rhs);
            } else {
                break;
            }
        }
        Ok(types)
    }

    // ----- target clause --------------------------------------------------

    fn target(&mut self) -> ScrubResult<TargetExpr> {
        self.target_or()
    }

    fn target_or(&mut self) -> ScrubResult<TargetExpr> {
        let mut lhs = self.target_and()?;
        while self.eat_kw("or") {
            let rhs = self.target_and()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn target_and(&mut self) -> ScrubResult<TargetExpr> {
        let mut lhs = self.target_not()?;
        while self.eat_kw("and") {
            let rhs = self.target_not()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn target_not(&mut self) -> ScrubResult<TargetExpr> {
        if self.eat_kw("not") {
            Ok(TargetExpr::Not(Box::new(self.target_not()?)))
        } else {
            self.target_prim()
        }
    }

    fn target_prim(&mut self) -> ScrubResult<TargetExpr> {
        if self.eat(&TokenKind::LParen) {
            let t = self.target()?;
            self.expect(TokenKind::RParen)?;
            return Ok(t);
        }
        if self.eat_kw("all") {
            return Ok(TargetExpr::All);
        }
        let attr = self.ident()?;
        let attr_lc = attr.to_ascii_lowercase();
        let values = self.target_values()?;
        match attr_lc.as_str() {
            "service" | "services" => Ok(TargetExpr::Service(values)),
            "server" | "servers" | "host" | "hosts" => Ok(TargetExpr::Host(values)),
            "dc" | "datacenter" | "datacenters" => Ok(TargetExpr::Dc(values)),
            _ => Err(ScrubError::Parse {
                pos: self.here(),
                msg: format!("unknown target attribute `{attr}` (expected Service/Server/DC)"),
            }),
        }
    }

    fn target_values(&mut self) -> ScrubResult<Vec<String>> {
        if self.eat(&TokenKind::Eq) {
            Ok(vec![self.target_value()?])
        } else if self.eat_kw("in") {
            if self.eat(&TokenKind::LParen) {
                let mut vs = vec![self.target_value()?];
                while self.eat(&TokenKind::Comma) {
                    vs.push(self.target_value()?);
                }
                self.expect(TokenKind::RParen)?;
                Ok(vs)
            } else {
                // `Service in BidServers` — single unparenthesized set name
                Ok(vec![self.target_value()?])
            }
        } else {
            self.err("expected `=` or `in` in target clause")
        }
    }

    fn target_value(&mut self) -> ScrubResult<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::Str(s) => Ok(s),
            other => Err(ScrubError::Parse {
                pos: self.here(),
                msg: format!("expected host/service name, found {}", other.describe()),
            }),
        }
    }

    // ----- misc literals ---------------------------------------------------

    /// `10 s`, `20 m`, `500 ms`, ...
    fn duration(&mut self) -> ScrubResult<i64> {
        let count = match self.bump() {
            TokenKind::Int(v) if v > 0 => v,
            other => {
                return self.err(format!(
                    "expected positive duration count, found {}",
                    other.describe()
                ));
            }
        };
        let unit = self.ident()?;
        duration_ms(count, &unit).ok_or(ScrubError::Parse {
            pos: self.here(),
            msg: format!("unknown duration unit `{unit}`"),
        })
    }

    /// `10%` or a float in (0, 1].
    fn fraction(&mut self) -> ScrubResult<f64> {
        let v = match self.bump() {
            TokenKind::Int(v) => v as f64,
            TokenKind::Float(v) => v,
            other => {
                return self.err(format!(
                    "expected sampling fraction, found {}",
                    other.describe()
                ));
            }
        };
        let frac = if self.eat(&TokenKind::Percent) {
            v / 100.0
        } else {
            v
        };
        if frac <= 0.0 || frac > 1.0 {
            return self.err(format!("sampling fraction {frac} outside (0, 1]"));
        }
        Ok(frac)
    }

    // ----- expressions -----------------------------------------------------

    fn expr(&mut self) -> ScrubResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at_kw("or") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.at_kw("and") {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> ScrubResult<Expr> {
        if self.at_kw("not") {
            self.bump();
            let e = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> ScrubResult<Expr> {
        let lhs = self.add_expr()?;

        // postfix predicates: IS [NOT] NULL, [NOT] IN (...), [NOT] BETWEEN
        if self.at_kw("is") {
            self.bump();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = if self.at_kw("not")
            && (matches!(self.peek2(), TokenKind::Ident(s) if s.eq_ignore_ascii_case("in") || s.eq_ignore_ascii_case("between")))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.at_kw("in") {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let mut list = vec![self.literal()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.literal()?);
            }
            self.expect(TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.at_kw("between") {
            self.bump();
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            let range = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(Expr::Binary {
                    op: BinOp::Ge,
                    lhs: Box::new(lhs.clone()),
                    rhs: Box::new(lo),
                }),
                rhs: Box::new(Expr::Binary {
                    op: BinOp::Le,
                    lhs: Box::new(lhs),
                    rhs: Box::new(hi),
                }),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(range),
                }
            } else {
                range
            });
        }
        if negated {
            return self.err("expected IN or BETWEEN after NOT");
        }

        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn add_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> ScrubResult<Expr> {
        if self.eat(&TokenKind::Minus) {
            let e = self.unary_expr()?;
            // fold literal negation
            return Ok(match e {
                Expr::Literal(Value::Int(v)) => Expr::Literal(Value::Int(-v)),
                Expr::Literal(Value::Long(v)) => Expr::Literal(Value::Long(-v)),
                Expr::Literal(Value::Double(v)) => Expr::Literal(Value::Double(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> ScrubResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Long(v)))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Double(v)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // keywords-as-literals
                if name.eq_ignore_ascii_case("true") {
                    self.bump();
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    self.bump();
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("null") {
                    self.bump();
                    return Ok(Expr::Literal(Value::Null));
                }
                self.bump();
                // aggregate or scalar function call?
                if matches!(self.peek(), TokenKind::LParen) {
                    return self.call(name);
                }
                // qualified field?
                if self.eat(&TokenKind::Dot) {
                    let field = self.ident()?;
                    return Ok(Expr::Field(FieldRef::qualified(name, field)));
                }
                Ok(Expr::Field(FieldRef::bare(name)))
            }
            other => self.err(format!("expected expression, found {}", other.describe())),
        }
    }

    /// Parse a call after having consumed `name`, at `(`.
    fn call(&mut self, name: String) -> ScrubResult<Expr> {
        self.expect(TokenKind::LParen)?;
        let lc = name.to_ascii_lowercase();

        // Aggregates become AggMarker expressions extracted by select_item.
        let agg = match lc.as_str() {
            // `COUNT(DISTINCT x)` is sugar for COUNT_DISTINCT(x)
            "count" if matches!(self.peek(), TokenKind::Ident(k) if k.eq_ignore_ascii_case("distinct")) =>
            {
                self.bump();
                Some(AggFn::CountDistinct)
            }
            "count" => Some(AggFn::Count),
            "sum" => Some(AggFn::Sum),
            "avg" | "mean" => Some(AggFn::Avg),
            "min" => Some(AggFn::Min),
            "max" => Some(AggFn::Max),
            "count_distinct" | "countdistinct" => Some(AggFn::CountDistinct),
            "top" | "topk" | "top_k" => {
                let k = match self.bump() {
                    TokenKind::Int(k) if k > 0 => k as usize,
                    other => {
                        return self.err(format!(
                            "TOP expects a positive integer k, found {}",
                            other.describe()
                        ));
                    }
                };
                self.expect(TokenKind::Comma)?;
                Some(AggFn::TopK(k))
            }
            _ => None,
        };

        if let Some(func) = agg {
            let arg = if matches!(func, AggFn::Count) && self.eat(&TokenKind::Star) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(TokenKind::RParen)?;
            return Ok(Expr::Call {
                func: ScalarFn::Abs, // placeholder, see AggMarker below
                args: vec![agg_marker(func, arg)],
            });
        }

        let func = ScalarFn::by_name(&name).ok_or(ScrubError::Parse {
            pos: self.here(),
            msg: format!("unknown function `{name}`"),
        })?;
        let mut args = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            args.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                args.push(self.expr()?);
            }
        }
        self.expect(TokenKind::RParen)?;
        if args.len() != func.arity() {
            return self.err(format!(
                "{name} expects {} argument(s), got {}",
                func.arity(),
                args.len()
            ));
        }
        Ok(Expr::Call { func, args })
    }

    fn literal(&mut self) -> ScrubResult<Value> {
        let neg = self.eat(&TokenKind::Minus);
        let v = match self.bump() {
            TokenKind::Int(v) => Value::Long(if neg { -v } else { v }),
            TokenKind::Float(v) => Value::Double(if neg { -v } else { v }),
            TokenKind::Str(s) if !neg => Value::Str(s),
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("true") => Value::Bool(true),
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("false") => Value::Bool(false),
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("null") => Value::Null,
            other => {
                return self.err(format!("expected literal, found {}", other.describe()));
            }
        };
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Aggregate markers
//
// Aggregates can be embedded in scalar arithmetic in the select list
// (Figure 13: `1000*AVG(impression.cost)`). The parser wraps each aggregate
// application in a recognizable marker expression; `select_item` then
// extracts it. A marker is `Call { func: Abs, args: [InList { list: [Str
// "\u{0}agg:<name>"], .. }] }`-shaped — never constructible from user
// syntax because the sentinel string contains a NUL byte.
// ---------------------------------------------------------------------------

const AGG_SENTINEL: &str = "\u{0}agg";

fn agg_marker(func: AggFn, arg: Option<Expr>) -> Expr {
    let tag = match func {
        AggFn::Count => "count".to_string(),
        AggFn::Sum => "sum".to_string(),
        AggFn::Avg => "avg".to_string(),
        AggFn::Min => "min".to_string(),
        AggFn::Max => "max".to_string(),
        AggFn::TopK(k) => format!("topk:{k}"),
        AggFn::CountDistinct => "count_distinct".to_string(),
    };
    Expr::InList {
        expr: Box::new(arg.unwrap_or(Expr::Literal(Value::Null))),
        list: vec![Value::Str(format!("{AGG_SENTINEL}:{tag}"))],
        negated: false,
    }
}

fn marker_parts(e: &Expr) -> Option<(AggFn, Option<Expr>)> {
    if let Expr::Call {
        func: ScalarFn::Abs,
        args,
    } = e
    {
        if args.len() == 1 {
            if let Expr::InList {
                expr,
                list,
                negated: false,
            } = &args[0]
            {
                if list.len() == 1 {
                    if let Value::Str(s) = &list[0] {
                        if let Some(tag) = s.strip_prefix(&format!("{AGG_SENTINEL}:")) {
                            let func = match tag {
                                "count" => AggFn::Count,
                                "sum" => AggFn::Sum,
                                "avg" => AggFn::Avg,
                                "min" => AggFn::Min,
                                "max" => AggFn::Max,
                                "count_distinct" => AggFn::CountDistinct,
                                t => {
                                    let k = t.strip_prefix("topk:")?.parse().ok()?;
                                    AggFn::TopK(k)
                                }
                            };
                            let arg = match expr.as_ref() {
                                Expr::Literal(Value::Null) if func == AggFn::Count => None,
                                other => Some(other.clone()),
                            };
                            return Some((func, arg));
                        }
                    }
                }
            }
        }
    }
    None
}

/// Walk an expression extracting at most one aggregate marker. Returns
/// `(func, arg, wrapped_in_arithmetic)`; errors on nested or multiple
/// aggregates (which ScrubQL does not support).
///
/// When the aggregate is wrapped in scalar arithmetic (e.g.
/// `1000*AVG(cost)`) the wrapper is folded into the aggregate argument:
/// `AVG(cost)*1000 == AVG(cost*1000)` holds for AVG/SUM/MIN/MAX scaling by
/// a positive constant; we implement the general case by rewriting the
/// argument. Non-linear wrappers are rejected.
fn extract_aggregate(e: &Expr) -> ScrubResult<Option<(AggFn, Option<Expr>, bool)>> {
    if let Some((func, arg)) = marker_parts(e) {
        if let Some(a) = &arg {
            if count_aggs(a) > 0 {
                return Err(ScrubError::Unsupported(
                    "nested aggregates are not supported".into(),
                ));
            }
        }
        return Ok(Some((func, arg, false)));
    }
    // Try linear wrapper: c * AGG, AGG * c, AGG / c, c + AGG, AGG - c, ...
    if let Expr::Binary { op, lhs, rhs } = e {
        let l = marker_parts(lhs);
        let r = marker_parts(rhs);
        let lc = matches!(lhs.as_ref(), Expr::Literal(_));
        let rc = matches!(rhs.as_ref(), Expr::Literal(_));
        if count_aggs(e) > 1 {
            return Err(ScrubError::Unsupported(
                "select items may contain at most one aggregate".into(),
            ));
        }
        match (l, r, lc, rc, op) {
            // literal OP agg
            (None, Some((func, arg)), true, false, BinOp::Add | BinOp::Mul) if is_linear(&func) => {
                let arg = rewrap(arg, |inner| Expr::Binary {
                    op: *op,
                    lhs: lhs.clone(),
                    rhs: Box::new(inner),
                });
                return Ok(Some((func, arg, true)));
            }
            // agg OP literal
            (Some((func, arg)), None, false, true, _) if op.is_arith() && is_linear(&func) => {
                let arg = rewrap(arg, |inner| Expr::Binary {
                    op: *op,
                    lhs: Box::new(inner),
                    rhs: rhs.clone(),
                });
                return Ok(Some((func, arg, true)));
            }
            _ => {}
        }
        if count_aggs(e) == 1 {
            return Err(ScrubError::Unsupported(
                "aggregates may only be combined with constants linearly (e.g. 1000*AVG(x))".into(),
            ));
        }
    }
    if count_aggs(e) > 0 {
        return Err(ScrubError::Unsupported(
            "aggregate in unsupported position; use AGG(expr) at the top of a select item".into(),
        ));
    }
    Ok(None)
}

fn is_linear(f: &AggFn) -> bool {
    matches!(f, AggFn::Sum | AggFn::Avg | AggFn::Min | AggFn::Max)
}

fn rewrap(arg: Option<Expr>, f: impl Fn(Expr) -> Expr) -> Option<Expr> {
    arg.map(f)
}

fn count_aggs(e: &Expr) -> usize {
    if marker_parts(e).is_some() {
        return 1;
    }
    match e {
        Expr::Literal(_) | Expr::Field(_) => 0,
        Expr::Unary { expr, .. } => count_aggs(expr),
        Expr::Binary { lhs, rhs, .. } => count_aggs(lhs) + count_aggs(rhs),
        Expr::Call { args, .. } => args.iter().map(count_aggs).sum(),
        Expr::InList { expr, .. } => count_aggs(expr),
        Expr::IsNull { expr, .. } => count_aggs(expr),
    }
}

fn render_alias(_e: &Expr) -> String {
    "expr".to_string()
}

/// Validate that an explicit `JOIN ... ON` condition is exactly the
/// request-id equi-join — the only join ScrubQL admits (§3.2/§11).
fn check_equijoin_on_request_id(
    cond: &Expr,
    lhs_types: &[String],
    rhs_type: &str,
) -> ScrubResult<()> {
    if let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = cond
    {
        if let (Expr::Field(a), Expr::Field(b)) = (lhs.as_ref(), rhs.as_ref()) {
            let ok_side = |f: &FieldRef, allowed: &dyn Fn(&str) -> bool| {
                f.field == "request_id" && f.event_type.as_deref().map(allowed).unwrap_or(true)
            };
            let in_lhs = |t: &str| lhs_types.iter().any(|x| x == t);
            let is_rhs = |t: &str| t == rhs_type;
            let fwd = ok_side(a, &in_lhs) && ok_side(b, &is_rhs);
            let rev = ok_side(a, &is_rhs) && ok_side(b, &in_lhs);
            if fwd || rev {
                return Ok(());
            }
        }
    }
    Err(ScrubError::Unsupported(
        "joins are restricted to equi-joins on the request identifier \
         (ON a.request_id = b.request_id)"
            .into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_9_spam_query() {
        let q = parse_query(
            "Select bid.user_id, COUNT(*)\n\
             from bid\n\
             @[Service in BidServers and Server = host1]\n\
             group by bid.user_id;",
        )
        .unwrap();
        assert_eq!(q.from, vec!["bid"]);
        assert_eq!(q.select.len(), 2);
        assert!(matches!(
            q.select[1],
            SelectItem::Agg {
                func: AggFn::Count,
                arg: None,
                ..
            }
        ));
        assert_eq!(q.group_by.len(), 1);
        assert!(matches!(q.target, TargetExpr::And(_, _)));
    }

    #[test]
    fn figure_13_cpm_query_with_scaled_avg() {
        let q = parse_query(
            "Select 1000*AVG(impression.cost)\n\
             from impression\n\
             where impression.line_item_id = 42\n\
             @[Servers in (h1, h2, h3)];",
        )
        .unwrap();
        assert_eq!(q.from, vec!["impression"]);
        match &q.select[0] {
            SelectItem::Agg {
                func: AggFn::Avg,
                arg: Some(arg),
                ..
            } => {
                // wrapper folded into the argument: 1000 * cost
                let refs = arg.field_refs();
                assert_eq!(refs.len(), 1);
                assert_eq!(refs[0].field, "cost");
            }
            other => panic!("unexpected select item {other:?}"),
        }
        assert!(q.where_clause.is_some());
        assert!(matches!(&q.target, TargetExpr::Host(hs) if hs.len() == 3));
    }

    #[test]
    fn sampling_clause_figure_11_style() {
        let q = parse_query(
            "select COUNT(*) from impression \
             @[Service in PresentationServers and DC = DC1] \
             sample hosts 10% events 10% window 10 s group by impression.exchange_id",
        )
        .unwrap();
        assert!((q.sample.host_fraction - 0.1).abs() < 1e-12);
        assert!((q.sample.event_fraction - 0.1).abs() < 1e-12);
        assert_eq!(q.window_ms, Some(10_000));
    }

    #[test]
    fn sliding_window_clause() {
        let q = parse_query("select COUNT(*) from bid window 10 s slide 2 s").unwrap();
        assert_eq!(q.window_ms, Some(10_000));
        assert_eq!(q.slide_ms, Some(2_000));
        let q = parse_query("select COUNT(*) from bid window 10 s").unwrap();
        assert_eq!(q.slide_ms, None);
    }

    #[test]
    fn span_clauses() {
        let q =
            parse_query("select COUNT(*) from bid start in 5 m duration 20 m window 10 s").unwrap();
        assert_eq!(q.start, StartSpec::In(300_000));
        assert_eq!(q.duration_ms, Some(1_200_000));
        let q = parse_query("select COUNT(*) from bid start at 1234").unwrap();
        assert_eq!(q.start, StartSpec::At(1234));
        let q = parse_query("select COUNT(*) from bid start now").unwrap();
        assert_eq!(q.start, StartSpec::Now);
    }

    #[test]
    fn implicit_join_by_comma() {
        let q = parse_query("select COUNT(*) from bid, exclusion").unwrap();
        assert_eq!(q.from, vec!["bid", "exclusion"]);
        assert!(q.is_join());
    }

    #[test]
    fn explicit_equijoin_on_request_id_allowed() {
        let q = parse_query(
            "select COUNT(*) from auction join impression \
             on auction.request_id = impression.request_id",
        )
        .unwrap();
        assert_eq!(q.from, vec!["auction", "impression"]);
    }

    #[test]
    fn non_request_id_join_rejected() {
        let e = parse_query(
            "select COUNT(*) from auction join impression \
             on auction.line_item_id = impression.line_item_id",
        )
        .unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn outer_join_rejected() {
        let e = parse_query("select COUNT(*) from a left join b on a.request_id = b.request_id")
            .unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn non_equi_join_condition_rejected() {
        let e = parse_query("select COUNT(*) from a join b on a.request_id < b.request_id")
            .unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn having_and_order_by_unsupported() {
        assert!(matches!(
            parse_query("select COUNT(*) from bid group by bid.x having COUNT(*) > 1"),
            Err(ScrubError::Unsupported(_))
        ));
        assert!(matches!(
            parse_query("select bid.x from bid order by bid.x"),
            Err(ScrubError::Unsupported(_))
        ));
    }

    #[test]
    fn aggregates_all_forms() {
        let q = parse_query(
            "select COUNT(*), COUNT(bid.x), SUM(bid.x), AVG(bid.x), MIN(bid.x), \
             MAX(bid.x), TOP(5, bid.x), COUNT_DISTINCT(bid.x) from bid",
        )
        .unwrap();
        let funcs: Vec<AggFn> = q
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Agg { func, .. } => func.clone(),
                _ => panic!("expected aggregate"),
            })
            .collect();
        assert_eq!(
            funcs,
            vec![
                AggFn::Count,
                AggFn::Count,
                AggFn::Sum,
                AggFn::Avg,
                AggFn::Min,
                AggFn::Max,
                AggFn::TopK(5),
                AggFn::CountDistinct
            ]
        );
    }

    #[test]
    fn nested_aggregates_rejected() {
        assert!(parse_query("select SUM(AVG(bid.x)) from bid").is_err());
        assert!(matches!(
            parse_query("select AVG(bid.x) + AVG(bid.y) from bid"),
            Err(ScrubError::Unsupported(_))
        ));
    }

    #[test]
    fn nonlinear_agg_wrapper_rejected() {
        assert!(matches!(
            parse_query("select AVG(bid.x) * bid.y from bid"),
            Err(ScrubError::Unsupported(_))
        ));
    }

    #[test]
    fn where_expression_forms() {
        let q = parse_query(
            "select bid.x from bid where bid.x in (1, 2, 3) and bid.y not in ('a') \
             and bid.z is not null and bid.w between 1 and 10 and not bid.flag",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn expression_precedence() {
        // 1 + 2 * 3 = 7, not 9
        let e = parse_expr("1 + 2 * 3").unwrap();
        let r = e
            .resolve(&crate::expr::SlotBinder::new())
            .unwrap()
            .eval(&crate::expr::row_slots(&[]))
            .into_owned();
        assert_eq!(r, Value::Long(7));
        let e = parse_expr("(1 + 2) * 3").unwrap();
        let r = e
            .resolve(&crate::expr::SlotBinder::new())
            .unwrap()
            .eval(&crate::expr::row_slots(&[]))
            .into_owned();
        assert_eq!(r, Value::Long(9));
    }

    #[test]
    fn negative_literals() {
        let e = parse_expr("-5").unwrap();
        assert_eq!(e, Expr::Literal(Value::Long(-5)));
        let q = parse_query("select bid.x from bid where bid.x in (-1, -2.5)").unwrap();
        match q.where_clause.unwrap() {
            Expr::InList { list, .. } => {
                assert_eq!(list, vec![Value::Long(-1), Value::Double(-2.5)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aliases() {
        let q = parse_query("select AVG(bid.cost) as cpm, bid.x as ex from bid group by bid.x")
            .unwrap();
        assert_eq!(q.headers(), vec!["cpm", "ex"]);
    }

    #[test]
    fn target_clause_forms() {
        let q = parse_query("select COUNT(*) from bid @[all]").unwrap();
        assert_eq!(q.target, TargetExpr::All);
        let q = parse_query("select COUNT(*) from bid @[Service in (A, B) or DC = 'DC2']").unwrap();
        assert!(matches!(q.target, TargetExpr::Or(_, _)));
        let q = parse_query("select COUNT(*) from bid @[not Server = host9]").unwrap();
        assert!(matches!(q.target, TargetExpr::Not(_)));
        assert!(parse_query("select COUNT(*) from bid @[Planet = mars]").is_err());
    }

    #[test]
    fn duplicate_clauses_rejected() {
        assert!(parse_query("select COUNT(*) from bid where 1=1 where 2=2").is_err());
        assert!(parse_query("select COUNT(*) from bid @[all] @[all]").is_err());
        assert!(parse_query("select COUNT(*) from bid window 1 s window 2 s").is_err());
        assert!(parse_query("select COUNT(*) from bid duration 1 m duration 2 m").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("select COUNT(*) from bid garbage garbage").is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        assert!(parse_query("select FROB(bid.x) from bid").is_err());
    }

    #[test]
    fn scalar_functions_in_where() {
        let q = parse_query(
            "select bid.x from bid where starts_with(bid.city, 'san') and length(bid.city) > 3",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn bad_sampling_fractions_rejected() {
        assert!(parse_query("select COUNT(*) from bid sample hosts 0%").is_err());
        assert!(parse_query("select COUNT(*) from bid sample events 150%").is_err());
        assert!(parse_query("select COUNT(*) from bid sample").is_err());
    }

    #[test]
    fn fraction_without_percent_sign() {
        let q = parse_query("select COUNT(*) from bid sample events 0.25").unwrap();
        assert!((q.sample.event_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn count_distinct_sugar() {
        let q = parse_query("select COUNT(distinct bid.user_id) from bid").unwrap();
        assert!(matches!(
            q.select[0],
            SelectItem::Agg {
                func: AggFn::CountDistinct,
                ..
            }
        ));
    }

    #[test]
    fn count_distinct_and_top() {
        let q = parse_query("select COUNT_DISTINCT(bid.user_id), TOP(10, bid.user_id) from bid")
            .unwrap();
        assert!(matches!(
            q.select[0],
            SelectItem::Agg {
                func: AggFn::CountDistinct,
                ..
            }
        ));
        assert!(matches!(
            q.select[1],
            SelectItem::Agg {
                func: AggFn::TopK(10),
                ..
            }
        ));
    }
}
