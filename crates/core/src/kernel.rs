//! Tap kernels: a host plan's selection predicate compiled once, at
//! install, into a typed tree the agent evaluates on every active event.
//!
//! The generic [`ResolvedExpr::eval`] walks a dynamically-typed tree and
//! builds a [`Value`] at every node. Host predicates are almost always
//! conjunctions of `field ⋄ literal` tests, so [`TapKernel::compile`]
//! turns each such test into an arm that reads the field in place and
//! compares it against a literal pre-converted to the type the comparison
//! needs (`f64` for numerics, `&str` for strings). Nothing is cloned and
//! nothing is allocated per evaluation.
//!
//! **Contract:** for every predicate, every tuple (including tuples
//! shorter than the plan's arity) and every [`Value`] variant in every
//! slot, [`TapKernel::eval`] returns exactly what
//! [`ResolvedExpr::eval_bool`] returns over the host slot layout
//! ([`TapEvent::slot`]). Shapes without a typed arm fall back to the
//! generic evaluator on borrowed slots.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::expr::{BinOp, ResolvedExpr, ScalarFn, UnaryOp};
use crate::value::Value;

/// One tapped event as a host plan's slot layout sees it: user fields at
/// `0..arity`, `request_id` at `arity`, `timestamp` past it.
#[derive(Debug, Clone, Copy)]
pub struct TapEvent<'v> {
    /// User field values in schema order (may be shorter than the arity).
    pub values: &'v [Value],
    /// The event's request id.
    pub request_id: u64,
    /// The event's timestamp (ms).
    pub timestamp_ms: i64,
}

impl<'v> TapEvent<'v> {
    /// The value of `slot` under a plan of `arity` user fields: a missing
    /// user field reads NULL. User fields are borrowed.
    pub fn slot(&self, arity: usize, slot: usize) -> Cow<'v, Value> {
        Slot::of(slot, arity).value(self)
    }
}

/// A compiled host predicate. See the module docs for the contract.
#[derive(Debug)]
pub struct TapKernel {
    arity: usize,
    root: Node,
}

/// Where a typed arm reads its operand.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Field(usize),
    RequestId,
    Timestamp,
}

/// A `contains(slot, needle)` needle, pre-sorted by the comparison a
/// list element needs to equal it.
#[derive(Debug)]
enum Needle {
    /// Numeric needle: an element equals it iff it is numeric and its
    /// `f64` view is `total_cmp`-equal.
    Num(f64),
    /// String needle: substring of a string haystack, or an equal string
    /// list element.
    Str(String),
    /// Anything else: `Value::loose_eq` per element.
    Other(Value),
}

/// Every arm evaluates to a plain `bool` that equals the generic
/// evaluator's `as_bool() == Some(true)`; every arm but `Generic` also
/// always yields a `Bool` in the generic evaluator, which is what makes
/// `Not` a plain negation.
#[derive(Debug)]
enum Node {
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    /// `slot ⋄ numeric literal`, ordered by `f64::total_cmp`.
    Num {
        slot: Slot,
        op: BinOp,
        lit: f64,
    },
    /// `slot ⋄ string literal`.
    Str {
        slot: Slot,
        op: BinOp,
        lit: String,
    },
    /// `contains(slot, literal)`.
    Contains {
        slot: Slot,
        needle: Needle,
    },
    /// `slot [not] in (literals)`.
    InList {
        slot: Slot,
        list: Vec<Value>,
        negated: bool,
    },
    /// `slot is [not] null`.
    IsNull {
        slot: Slot,
        negated: bool,
    },
    /// Any other shape: the generic evaluator on borrowed slots.
    Generic(ResolvedExpr),
}

impl TapKernel {
    /// Compile `pred` for a plan of `arity` user fields.
    pub fn compile(pred: &ResolvedExpr, arity: usize) -> TapKernel {
        TapKernel {
            arity,
            root: Node::compile(pred, arity),
        }
    }

    /// Does the event satisfy the predicate?
    #[inline]
    pub fn eval(&self, ev: &TapEvent<'_>) -> bool {
        self.root.eval(ev, self.arity)
    }
}

impl Slot {
    fn of(slot: usize, arity: usize) -> Slot {
        match slot.cmp(&arity) {
            Ordering::Less => Slot::Field(slot),
            Ordering::Equal => Slot::RequestId,
            Ordering::Greater => Slot::Timestamp,
        }
    }

    /// The slot's value, borrowed when it is a user field.
    fn value<'v>(self, ev: &TapEvent<'v>) -> Cow<'v, Value> {
        static NULL: Value = Value::Null;
        match self {
            Slot::Field(i) => Cow::Borrowed(ev.values.get(i).unwrap_or(&NULL)),
            Slot::RequestId => Cow::Owned(Value::Long(ev.request_id as i64)),
            Slot::Timestamp => Cow::Owned(Value::DateTime(ev.timestamp_ms)),
        }
    }

    /// The slot's numeric view (`Value::as_f64`).
    fn num(self, ev: &TapEvent<'_>) -> Option<f64> {
        match self {
            Slot::Field(i) => ev.values.get(i).and_then(Value::as_f64),
            Slot::RequestId => Some(ev.request_id as i64 as f64),
            Slot::Timestamp => Some(ev.timestamp_ms as f64),
        }
    }
}

impl Needle {
    fn new(lit: &Value) -> Needle {
        match (lit.as_f64(), lit) {
            (Some(x), _) => Needle::Num(x),
            (None, Value::Str(s)) => Needle::Str(s.clone()),
            (None, v) => Needle::Other(v.clone()),
        }
    }

    /// `x.loose_eq(needle)` for one list element.
    fn matches(&self, x: &Value) -> bool {
        match self {
            Needle::Num(n) => x
                .as_f64()
                .is_some_and(|x| x.total_cmp(n) == Ordering::Equal),
            Needle::Str(n) => x.as_str() == Some(n.as_str()),
            Needle::Other(v) => x.loose_eq(v),
        }
    }
}

impl Node {
    fn compile(e: &ResolvedExpr, arity: usize) -> Node {
        let generic = || Node::Generic(e.clone());
        match e {
            ResolvedExpr::Binary { op, lhs, rhs } => match op {
                BinOp::And => Node::And(
                    Box::new(Node::compile(lhs, arity)),
                    Box::new(Node::compile(rhs, arity)),
                ),
                BinOp::Or => Node::Or(
                    Box::new(Node::compile(lhs, arity)),
                    Box::new(Node::compile(rhs, arity)),
                ),
                op if op.is_comparison() => match (&**lhs, &**rhs) {
                    (ResolvedExpr::Input(s), ResolvedExpr::Literal(lit)) => {
                        Node::compare(Slot::of(*s, arity), *op, lit)
                    }
                    (ResolvedExpr::Literal(lit), ResolvedExpr::Input(s)) => {
                        Node::compare(Slot::of(*s, arity), op.flipped(), lit)
                    }
                    _ => None,
                }
                .unwrap_or_else(generic),
                _ => generic(),
            },
            // the generic NOT of a non-boolean is false, not true, so only
            // a child that always yields a boolean negates as a plain `!`
            ResolvedExpr::Unary {
                op: UnaryOp::Not,
                expr,
            } => match Node::compile(expr, arity) {
                Node::Generic(_) => generic(),
                k => Node::Not(Box::new(k)),
            },
            ResolvedExpr::Call {
                func: ScalarFn::Contains,
                args,
            } => match args.as_slice() {
                [ResolvedExpr::Input(s), ResolvedExpr::Literal(lit)] => Node::Contains {
                    slot: Slot::of(*s, arity),
                    needle: Needle::new(lit),
                },
                _ => generic(),
            },
            ResolvedExpr::InList {
                expr,
                list,
                negated,
            } => match **expr {
                ResolvedExpr::Input(s) => Node::InList {
                    slot: Slot::of(s, arity),
                    list: list.clone(),
                    negated: *negated,
                },
                _ => generic(),
            },
            ResolvedExpr::IsNull { expr, negated } => match **expr {
                ResolvedExpr::Input(s) => Node::IsNull {
                    slot: Slot::of(s, arity),
                    negated: *negated,
                },
                _ => generic(),
            },
            _ => generic(),
        }
    }

    /// A typed arm for `slot op lit`, when the literal has one: numeric
    /// literals (booleans and datetimes included, as `Value::as_f64` sees
    /// them) and strings. NULL, list and nested literals stay generic.
    fn compare(slot: Slot, op: BinOp, lit: &Value) -> Option<Node> {
        match (lit.as_f64(), lit) {
            (Some(lit), _) => Some(Node::Num { slot, op, lit }),
            (None, Value::Str(s)) => Some(Node::Str {
                slot,
                op,
                lit: s.clone(),
            }),
            _ => None,
        }
    }

    fn eval(&self, ev: &TapEvent<'_>, arity: usize) -> bool {
        match self {
            Node::And(a, b) => a.eval(ev, arity) && b.eval(ev, arity),
            Node::Or(a, b) => a.eval(ev, arity) || b.eval(ev, arity),
            Node::Not(k) => !k.eval(ev, arity),
            // a non-numeric slot (NULL, string, list, nested) never
            // compares with a numeric literal
            Node::Num { slot, op, lit } => slot.num(ev).is_some_and(|x| op.holds(x.total_cmp(lit))),
            Node::Str { slot, op, lit } => slot
                .value(ev)
                .as_str()
                .is_some_and(|s| op.holds(s.cmp(lit.as_str()))),
            Node::Contains { slot, needle } => match (&*slot.value(ev), needle) {
                (Value::Str(h), Needle::Str(n)) => h.contains(n.as_str()),
                (Value::List(xs), needle) => xs.iter().any(|x| needle.matches(x)),
                _ => false,
            },
            Node::InList {
                slot,
                list,
                negated,
            } => {
                let v = slot.value(ev);
                !v.is_null() && list.iter().any(|x| x.loose_eq(&v)) != *negated
            }
            Node::IsNull { slot, negated } => slot.value(ev).is_null() != *negated,
            Node::Generic(e) => e.eval_bool(&|s| ev.slot(arity, s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARITY: usize = 3;

    fn input(s: usize) -> Box<ResolvedExpr> {
        Box::new(ResolvedExpr::Input(s))
    }

    fn lit(v: impl Into<Value>) -> Box<ResolvedExpr> {
        Box::new(ResolvedExpr::Literal(v.into()))
    }

    fn cmp(op: BinOp, lhs: Box<ResolvedExpr>, rhs: Box<ResolvedExpr>) -> ResolvedExpr {
        ResolvedExpr::Binary { op, lhs, rhs }
    }

    fn event(values: &[Value]) -> TapEvent<'_> {
        TapEvent {
            values,
            request_id: 77,
            timestamp_ms: 1_000,
        }
    }

    /// The kernel's verdict, after checking it against the generic
    /// evaluator over the same slot layout.
    fn check(pred: &ResolvedExpr, values: &[Value]) -> bool {
        let k = TapKernel::compile(pred, ARITY);
        let ev = event(values);
        let generic = pred.eval_bool(&|s| ev.slot(ARITY, s));
        assert_eq!(k.eval(&ev), generic, "{pred:?} over {values:?}");
        generic
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Long(5),
            Value::Str("us".into()),
            Value::List(vec![Value::Long(1000), Value::Int(7), Value::Null]),
        ]
    }

    #[test]
    fn numeric_literal_arm() {
        let p = cmp(BinOp::Eq, input(0), lit(5i32));
        assert!(matches!(
            TapKernel::compile(&p, ARITY).root,
            Node::Num { .. }
        ));
        assert!(check(&p, &row()));
        assert!(check(&cmp(BinOp::Lt, input(0), lit(5.5f64)), &row()));
        assert!(!check(&cmp(BinOp::Gt, input(0), lit(5i64)), &row()));
        // a string slot never equals a number; widths mix freely
        assert!(!check(&cmp(BinOp::Eq, input(1), lit(5i64)), &row()));
        assert!(check(&cmp(BinOp::Eq, input(0), lit(5.0f32)), &row()));
        // -0.0 and +0.0 are distinct under total_cmp, as in the generic path
        assert!(!check(
            &cmp(BinOp::Eq, input(0), lit(-0.0f64)),
            &[Value::Double(0.0)]
        ));
        assert!(check(
            &cmp(BinOp::Eq, input(0), lit(true)),
            &[Value::Int(1)]
        ));
    }

    #[test]
    fn string_literal_arm() {
        let p = cmp(BinOp::Eq, input(1), lit("us"));
        assert!(matches!(
            TapKernel::compile(&p, ARITY).root,
            Node::Str { .. }
        ));
        assert!(check(&p, &row()));
        assert!(check(&cmp(BinOp::Lt, input(1), lit("uz")), &row()));
        assert!(!check(&cmp(BinOp::Eq, input(0), lit("5")), &row()));
        assert!(!check(&cmp(BinOp::Ne, input(1), lit("us")), &row()));
    }

    #[test]
    fn contains_arm() {
        let contains = |slot, needle: Value| ResolvedExpr::Call {
            func: ScalarFn::Contains,
            args: vec![ResolvedExpr::Input(slot), ResolvedExpr::Literal(needle)],
        };
        let p = contains(2, Value::Long(1000));
        assert!(matches!(
            TapKernel::compile(&p, ARITY).root,
            Node::Contains { .. }
        ));
        assert!(check(&p, &row()));
        assert!(check(&contains(2, Value::Double(7.0)), &row()));
        assert!(!check(&contains(2, Value::Long(3)), &row()));
        assert!(check(&contains(2, Value::Null), &row()));
        assert!(check(&contains(1, Value::Str("s".into())), &row()));
        assert!(!check(&contains(1, Value::Long(1)), &row()));
        assert!(!check(&contains(0, Value::Long(5)), &row()));
    }

    #[test]
    fn in_list_and_is_null_arms() {
        let in_list = |negated| ResolvedExpr::InList {
            expr: input(0),
            list: vec![Value::Int(4), Value::Double(5.0)],
            negated,
        };
        assert!(matches!(
            TapKernel::compile(&in_list(false), ARITY).root,
            Node::InList { .. }
        ));
        assert!(check(&in_list(false), &row()));
        assert!(!check(&in_list(true), &row()));
        // NULL is in no list, negated or not
        assert!(!check(&in_list(true), &[Value::Null]));
        let is_null = |slot, negated| ResolvedExpr::IsNull {
            expr: input(slot),
            negated,
        };
        assert!(matches!(
            TapKernel::compile(&is_null(0, false), ARITY).root,
            Node::IsNull { .. }
        ));
        assert!(!check(&is_null(0, false), &row()));
        // tuples shorter than the arity read NULL
        assert!(check(&is_null(2, false), &row()[..1]));
        assert!(check(&is_null(ARITY, true), &row()));
    }

    #[test]
    fn boolean_connectives() {
        let a = cmp(BinOp::Eq, input(0), lit(5i64));
        let b = cmp(BinOp::Eq, input(1), lit("de"));
        let and = cmp(BinOp::And, Box::new(a.clone()), Box::new(b.clone()));
        let or = cmp(BinOp::Or, Box::new(a), Box::new(b));
        assert!(matches!(
            TapKernel::compile(&and, ARITY).root,
            Node::And(..)
        ));
        assert!(!check(&and, &row()));
        assert!(check(&or, &row()));
        let not = ResolvedExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(and),
        };
        assert!(matches!(
            TapKernel::compile(&not, ARITY).root,
            Node::Not(..)
        ));
        assert!(check(&not, &row()));
    }

    #[test]
    fn literal_on_the_left_flips_the_operator() {
        let p = cmp(BinOp::Lt, lit(4i64), input(0));
        assert!(matches!(
            TapKernel::compile(&p, ARITY).root,
            Node::Num { op: BinOp::Gt, .. }
        ));
        assert!(check(&p, &row()));
        assert!(!check(&cmp(BinOp::Ge, lit(4i64), input(0)), &row()));
        assert!(check(&cmp(BinOp::Gt, lit("zz"), input(1)), &row()));
    }

    #[test]
    fn request_id_and_timestamp_slots() {
        let rid = cmp(BinOp::Eq, input(ARITY), lit(77i64));
        assert!(matches!(
            TapKernel::compile(&rid, ARITY).root,
            Node::Num {
                slot: Slot::RequestId,
                ..
            }
        ));
        assert!(check(&rid, &row()));
        assert!(check(
            &cmp(BinOp::Ge, input(ARITY + 1), lit(1_000i64)),
            &row()
        ));
        assert!(!check(&cmp(BinOp::Eq, input(ARITY), lit("77")), &row()));
        // a request id above i64::MAX reads as a negative long
        let ev = TapEvent {
            values: &[],
            request_id: u64::MAX,
            timestamp_ms: 0,
        };
        let neg = cmp(BinOp::Eq, input(ARITY), lit(-1i64));
        assert!(TapKernel::compile(&neg, ARITY).eval(&ev));
        assert!(neg.eval_bool(&|s| ev.slot(ARITY, s)));
    }

    #[test]
    fn other_shapes_fall_back_to_the_generic_evaluator() {
        // arithmetic, slot-vs-slot, NULL literals, NOT of a non-boolean
        let shapes = [
            cmp(
                BinOp::Gt,
                Box::new(cmp(BinOp::Mul, input(0), lit(2i64))),
                lit(9i64),
            ),
            cmp(BinOp::Eq, input(0), input(0)),
            cmp(BinOp::Eq, input(0), lit(Value::Null)),
            ResolvedExpr::Unary {
                op: UnaryOp::Not,
                expr: input(0),
            },
        ];
        for p in &shapes {
            let k = TapKernel::compile(p, ARITY);
            assert!(matches!(k.root, Node::Generic(_)), "{p:?}");
            check(p, &row());
            check(p, &[Value::Bool(false)]);
        }
        // a generic child still sits under typed connectives
        let mixed = cmp(
            BinOp::And,
            Box::new(shapes[0].clone()),
            Box::new(cmp(BinOp::Eq, input(1), lit("us"))),
        );
        assert!(matches!(
            TapKernel::compile(&mixed, ARITY).root,
            Node::And(..)
        ));
        assert!(check(&mixed, &row()));
    }
}
