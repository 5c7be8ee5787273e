//! Differential property test: a host predicate compiled into a tap
//! kernel decides exactly what the generic evaluator decides, for random
//! predicate trees over random event tuples.

use proptest::prelude::*;

use scrub_core::expr::{BinOp, ResolvedExpr, ScalarFn, UnaryOp};
use scrub_core::kernel::{TapEvent, TapKernel};
use scrub_core::value::Value;

/// User fields per event; slot `ARITY` is the request id, `ARITY + 1`
/// the timestamp, and anything past it reads the timestamp too.
const ARITY: usize = 4;

/// Values that collide across variants and widths: zeros of both signs,
/// NaN, equal numbers of every width, strings that look like numbers,
/// lists holding numbers, strings and NULL.
fn pool() -> Vec<Value> {
    let mut vs = vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(0),
        Value::Int(1),
        Value::Int(5),
        Value::Int(i32::MIN),
        Value::Long(0),
        Value::Long(1),
        Value::Long(-1),
        Value::Long(5),
        Value::Long(i64::MIN),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Float(f32::NAN),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(1.0),
        Value::Double(5.0),
        Value::Double(0.5),
        Value::Double(f64::NAN),
        Value::Double(f64::INFINITY),
        Value::DateTime(0),
        Value::DateTime(1),
        Value::DateTime(5),
        Value::Str(String::new()),
        Value::Str("a".into()),
        Value::Str("ab".into()),
        Value::Str("us".into()),
        Value::Str("5".into()),
        Value::Nested(vec![("k".into(), Value::Long(1))]),
    ];
    vs.push(Value::List(vec![]));
    vs.push(Value::List(vec![Value::Long(1), Value::Int(5)]));
    vs.push(Value::List(vec![Value::Double(-0.0), Value::Null]));
    vs.push(Value::List(vec![Value::Double(0.0)]));
    vs.push(Value::List(vec![Value::Float(-0.0), Value::Int(0)]));
    vs.push(Value::List(vec![Value::Double(f64::NAN), Value::Long(1)]));
    vs.push(Value::List(vec![
        Value::Str("a".into()),
        Value::Str("us".into()),
    ]));
    vs.push(Value::List(vec![
        Value::List(vec![Value::Long(1)]),
        Value::Bool(true),
    ]));
    vs
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        prop::sample::select(pool()),
        prop::sample::select(pool()),
        any::<i64>().prop_map(Value::Long),
        any::<f64>().prop_map(Value::Double),
        any::<f32>().prop_map(Value::Float),
        "[a-u]{0,3}".prop_map(Value::Str),
        prop::collection::vec(prop::sample::select(pool()), 0..4).prop_map(Value::List),
    ]
}

fn arb_op() -> impl Strategy<Value = BinOp> {
    prop::sample::select(vec![
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ])
}

fn arb_slot() -> impl Strategy<Value = usize> {
    0..ARITY + 3
}

fn input(s: usize) -> Box<ResolvedExpr> {
    Box::new(ResolvedExpr::Input(s))
}

fn lit(v: Value) -> Box<ResolvedExpr> {
    Box::new(ResolvedExpr::Literal(v))
}

fn bin(op: BinOp, lhs: Box<ResolvedExpr>, rhs: Box<ResolvedExpr>) -> ResolvedExpr {
    ResolvedExpr::Binary { op, lhs, rhs }
}

fn call(func: ScalarFn, args: Vec<ResolvedExpr>) -> ResolvedExpr {
    ResolvedExpr::Call { func, args }
}

/// Single tests: every shape with a kernel arm plus shapes that must
/// fall back (slot-vs-slot, arithmetic, other functions, bare slots and
/// literals, IN/IS NULL over a literal).
fn arb_leaf() -> impl Strategy<Value = ResolvedExpr> {
    prop_oneof![
        (arb_op(), arb_slot(), arb_value()).prop_map(|(op, s, v)| bin(op, input(s), lit(v))),
        (arb_op(), arb_slot(), arb_value()).prop_map(|(op, s, v)| bin(op, lit(v), input(s))),
        (arb_op(), arb_slot(), arb_slot()).prop_map(|(op, s, t)| bin(op, input(s), input(t))),
        (arb_op(), arb_slot(), arb_value(), arb_value()).prop_map(|(op, s, k, v)| bin(
            op,
            Box::new(bin(BinOp::Mul, input(s), lit(k))),
            lit(v)
        )),
        (arb_slot(), arb_value())
            .prop_map(|(s, v)| call(ScalarFn::Contains, vec![*input(s), *lit(v)])),
        (arb_slot(), arb_value())
            .prop_map(|(s, v)| call(ScalarFn::Contains, vec![*lit(v), *input(s)])),
        (arb_slot(), arb_value())
            .prop_map(|(s, v)| call(ScalarFn::StartsWith, vec![*input(s), *lit(v)])),
        (
            arb_slot(),
            prop::collection::vec(arb_value(), 0..4),
            any::<bool>()
        )
            .prop_map(|(s, list, negated)| ResolvedExpr::InList {
                expr: input(s),
                list,
                negated,
            }),
        (
            arb_value(),
            prop::collection::vec(arb_value(), 0..3),
            any::<bool>()
        )
            .prop_map(|(v, list, negated)| ResolvedExpr::InList {
                expr: lit(v),
                list,
                negated,
            }),
        (arb_slot(), any::<bool>()).prop_map(|(s, negated)| ResolvedExpr::IsNull {
            expr: input(s),
            negated,
        }),
        arb_slot().prop_map(ResolvedExpr::Input),
        arb_value().prop_map(ResolvedExpr::Literal),
    ]
}

/// Leaves under nested NOT / AND / OR.
fn arb_pred() -> impl Strategy<Value = ResolvedExpr> {
    arb_leaf().prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone(),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| bin(
                BinOp::And,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| bin(
                BinOp::Or,
                Box::new(a),
                Box::new(b)
            )),
            inner.prop_map(|e| ResolvedExpr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            }),
        ]
    })
}

/// An event: a tuple of any length up to past the arity (shorter tuples
/// read NULL), with request ids and timestamps that collide with the
/// pool's numbers.
fn arb_event() -> impl Strategy<Value = (Vec<Value>, u64, i64)> {
    (
        prop::collection::vec(arb_value(), 0..ARITY + 2),
        prop::sample::select(vec![0u64, 1, 5, u64::MAX, 1 << 63]),
        prop::sample::select(vec![0i64, 1, 5, -1, i64::MIN]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The kernel agrees with the generic evaluator over the host slot
    /// layout, fed by an accessor that hands out owned values.
    fn kernel_agrees_with_generic_evaluator(
        pred in arb_pred(),
        events in prop::collection::vec(arb_event(), 1..12),
    ) {
        let kernel = TapKernel::compile(&pred, ARITY);
        for (values, request_id, timestamp_ms) in &events {
            let fetch = |slot: usize| {
                if slot < ARITY {
                    values.get(slot).cloned().unwrap_or(Value::Null)
                } else if slot == ARITY {
                    Value::Long(*request_id as i64)
                } else {
                    Value::DateTime(*timestamp_ms)
                }
            };
            let event = TapEvent { values, request_id: *request_id, timestamp_ms: *timestamp_ms };
            prop_assert_eq!(
                kernel.eval(&event),
                pred.eval_bool_by(&fetch),
                "{:?} over {:?} rid {} ts {}",
                pred,
                values,
                request_id,
                timestamp_ms
            );
        }
    }
}
