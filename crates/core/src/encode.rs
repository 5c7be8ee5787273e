//! Compact binary wire encoding for events and event batches.
//!
//! Hosts ship selected/projected events to ScrubCentral over (possibly
//! cross-continental) links, so the encoding is deliberately compact:
//! varint-encoded integers, length-prefixed strings, one tag byte per value.
//! The same encoding is reused by the logging baseline to account for
//! storage, which keeps the Scrub-vs-logging comparison apples-to-apples.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::columnar;
use crate::config::WireFormat;
use crate::error::{ScrubError, ScrubResult};
use crate::event::{Event, RequestId};
use crate::schema::EventTypeId;
use crate::value::Value;

/// Wire format byte for versioned frames: row (v1) layout after the header.
pub const FORMAT_ROW: u8 = 1;
/// Wire format byte for versioned frames: columnar (v2) layout.
pub const FORMAT_COLUMNAR: u8 = 2;

/// Decoder sanity cap on the claimed event count of a frame.
pub(crate) const MAX_BATCH_EVENTS: usize = 1 << 24;

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_LONG: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_DOUBLE: u8 = 6;
const TAG_DATETIME: u8 = 7;
const TAG_STR: u8 = 8;
const TAG_LIST: u8 = 9;
const TAG_NESTED: u8 = 10;

/// ZigZag-encode a signed integer so small magnitudes stay small.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a LEB128 varint.
pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a LEB128 varint.
pub(crate) fn get_varint(buf: &mut impl Buf) -> ScrubResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(ScrubError::Decode("truncated varint".into()));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(ScrubError::Decode("varint overflow".into()));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(crate) fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Int(x) => {
            buf.put_u8(TAG_INT);
            put_varint(buf, zigzag(*x as i64));
        }
        Value::Long(x) => {
            buf.put_u8(TAG_LONG);
            put_varint(buf, zigzag(*x));
        }
        Value::Float(x) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f32(*x);
        }
        Value::Double(x) => {
            buf.put_u8(TAG_DOUBLE);
            buf.put_f64(*x);
        }
        Value::DateTime(x) => {
            buf.put_u8(TAG_DATETIME);
            put_varint(buf, zigzag(*x));
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Value::List(vs) => {
            buf.put_u8(TAG_LIST);
            put_varint(buf, vs.len() as u64);
            for v in vs {
                put_value(buf, v);
            }
        }
        Value::Nested(kv) => {
            buf.put_u8(TAG_NESTED);
            put_varint(buf, kv.len() as u64);
            for (k, v) in kv {
                put_varint(buf, k.len() as u64);
                buf.put_slice(k.as_bytes());
                put_value(buf, v);
            }
        }
    }
}

pub(crate) fn get_string(buf: &mut impl Buf) -> ScrubResult<String> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(ScrubError::Decode("truncated string".into()));
    }
    // every reader here (`Bytes`, `&[u8]`) is contiguous, so the chunk
    // holds all `len` bytes
    let s = std::str::from_utf8(&buf.chunk()[..len])
        .map_err(|_| ScrubError::Decode("invalid utf-8".into()))?
        .to_owned();
    buf.advance(len);
    Ok(s)
}

pub(crate) fn get_value(buf: &mut impl Buf, depth: u32) -> ScrubResult<Value> {
    if depth > 16 {
        return Err(ScrubError::Decode("value nesting too deep".into()));
    }
    if !buf.has_remaining() {
        return Err(ScrubError::Decode("truncated value".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(unzigzag(get_varint(buf)?) as i32),
        TAG_LONG => Value::Long(unzigzag(get_varint(buf)?)),
        TAG_FLOAT => {
            if buf.remaining() < 4 {
                return Err(ScrubError::Decode("truncated float".into()));
            }
            Value::Float(buf.get_f32())
        }
        TAG_DOUBLE => {
            if buf.remaining() < 8 {
                return Err(ScrubError::Decode("truncated double".into()));
            }
            Value::Double(buf.get_f64())
        }
        TAG_DATETIME => Value::DateTime(unzigzag(get_varint(buf)?)),
        TAG_STR => Value::Str(get_string(buf)?),
        TAG_LIST => {
            let n = get_varint(buf)? as usize;
            if n > buf.remaining() {
                return Err(ScrubError::Decode("list length exceeds buffer".into()));
            }
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(get_value(buf, depth + 1)?);
            }
            Value::List(vs)
        }
        TAG_NESTED => {
            let n = get_varint(buf)? as usize;
            if n > buf.remaining() {
                return Err(ScrubError::Decode("nested length exceeds buffer".into()));
            }
            let mut kv = Vec::with_capacity(n);
            for _ in 0..n {
                let k = get_string(buf)?;
                kv.push((k, get_value(buf, depth + 1)?));
            }
            Value::Nested(kv)
        }
        other => {
            return Err(ScrubError::Decode(format!("unknown value tag {other}")));
        }
    })
}

/// Encode a single event.
pub fn encode_event(buf: &mut BytesMut, ev: &Event) {
    put_varint(buf, ev.type_id.0 as u64);
    put_varint(buf, ev.request_id.0);
    put_varint(buf, zigzag(ev.timestamp));
    put_varint(buf, ev.values.len() as u64);
    for v in &ev.values {
        put_value(buf, v);
    }
}

/// Decode a single event.
pub fn decode_event(buf: &mut Bytes) -> ScrubResult<Event> {
    let type_id = EventTypeId(get_varint(buf)? as u32);
    let request_id = RequestId(get_varint(buf)?);
    let timestamp = unzigzag(get_varint(buf)?);
    let arity = get_varint(buf)? as usize;
    if arity > 1 << 16 {
        return Err(ScrubError::Decode("implausible event arity".into()));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(buf, 0)?);
    }
    Ok(Event {
        type_id,
        request_id,
        timestamp,
        values,
    })
}

/// Encode a batch of events into a single frame (count-prefixed).
///
/// This is the *legacy* (unversioned) row frame, kept byte-identical for
/// compatibility with already-stored data (the logging baseline) and old
/// agents. New frames should use [`encode_batch_format`], which prefixes
/// a `[0x00, format]` header.
pub fn encode_batch(events: &[Event]) -> Bytes {
    let mut buf = BytesMut::with_capacity(events.len() * 32 + 8);
    put_varint(&mut buf, events.len() as u64);
    for ev in events {
        encode_event(&mut buf, ev);
    }
    buf.freeze()
}

/// Encode a batch into a *versioned* frame: `[0x00, format, body]`.
///
/// The leading `0x00` cannot open a legacy non-empty frame (the count
/// varint of `n >= 1` never starts with a zero byte) and the legacy empty
/// frame is exactly one byte, so [`decode_batch`] can tell the three
/// apart without external context.
pub fn encode_batch_format(events: &[Event], format: WireFormat) -> Bytes {
    let mut buf = BytesMut::with_capacity(events.len() * 32 + 16);
    buf.put_u8(0x00);
    match format {
        WireFormat::Row => {
            buf.put_u8(FORMAT_ROW);
            put_varint(&mut buf, events.len() as u64);
            for ev in events {
                encode_event(&mut buf, ev);
            }
        }
        WireFormat::Columnar => {
            buf.put_u8(FORMAT_COLUMNAR);
            columnar::encode_columnar_body(&mut buf, events);
        }
    }
    buf.freeze()
}

/// Decode a batch frame produced by [`encode_batch`] or
/// [`encode_batch_format`] (any wire format).
pub fn decode_batch(buf: Bytes) -> ScrubResult<Vec<Event>> {
    let mut out = Vec::new();
    decode_batch_into(buf, &mut out)?;
    Ok(out)
}

/// Decode a batch frame into a caller-provided vector (cleared first).
///
/// Hot-path variant of [`decode_batch`]: central decodes one frame per
/// arriving batch, so reusing the output vector amortises its allocation
/// across frames. On error the vector contents are unspecified (but valid).
/// Dispatches on the wire format: frames opening with `0x00` and at least
/// two bytes carry a format byte; anything else is a legacy row frame.
pub fn decode_batch_into(mut buf: Bytes, out: &mut Vec<Event>) -> ScrubResult<()> {
    out.clear();
    if buf.len() >= 2 && buf[0] == 0x00 {
        let format = buf[1];
        buf.advance(2);
        return match format {
            FORMAT_ROW => decode_row_body(buf, out),
            FORMAT_COLUMNAR => {
                let batch = columnar::decode_columnar_body(&buf)?;
                out.reserve(batch.event_count().min(4096));
                batch.push_events(out);
                Ok(())
            }
            other => Err(ScrubError::Decode(format!("unknown wire format {other}"))),
        };
    }
    decode_row_body(buf, out)
}

fn decode_row_body(mut buf: Bytes, out: &mut Vec<Event>) -> ScrubResult<()> {
    let n = get_varint(&mut buf)? as usize;
    if n > MAX_BATCH_EVENTS {
        return Err(ScrubError::Decode("implausible batch size".into()));
    }
    out.reserve(n.min(4096));
    for _ in 0..n {
        out.push(decode_event(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(ScrubError::Decode("trailing bytes after batch".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> Event {
        Event::new(
            EventTypeId(3),
            RequestId(123456789),
            -42,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-5),
                Value::Long(1 << 40),
                Value::Float(1.5),
                Value::Double(-2.25),
                Value::DateTime(1_700_000_000_000),
                Value::Str("héllo".into()),
                Value::List(vec![Value::Int(1), Value::Int(2)]),
                Value::Nested(vec![("k".into(), Value::Str("v".into()))]),
            ],
        )
    }

    #[test]
    fn event_round_trip() {
        let ev = sample_event();
        let mut buf = BytesMut::new();
        encode_event(&mut buf, &ev);
        let mut bytes = buf.freeze();
        let back = decode_event(&mut bytes).unwrap();
        assert_eq!(back, ev);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn batch_round_trip() {
        let evs: Vec<Event> = (0..100)
            .map(|i| {
                Event::new(
                    EventTypeId(i % 4),
                    RequestId(i as u64 * 7),
                    i as i64,
                    vec![Value::Long(i as i64), Value::Str(format!("e{i}"))],
                )
            })
            .collect();
        let frame = encode_batch(&evs);
        let back = decode_batch(frame).unwrap();
        assert_eq!(back, evs);
    }

    #[test]
    fn empty_batch() {
        let frame = encode_batch(&[]);
        assert_eq!(decode_batch(frame).unwrap(), vec![]);
    }

    #[test]
    fn decode_into_reuses_and_clears_the_buffer() {
        let evs: Vec<Event> = (0..10)
            .map(|i| Event::new(EventTypeId(0), RequestId(i), i as i64, vec![Value::Int(1)]))
            .collect();
        let mut out = Vec::new();
        decode_batch_into(encode_batch(&evs), &mut out).unwrap();
        assert_eq!(out, evs);
        let cap = out.capacity();
        // a second, smaller frame reuses the allocation and replaces content
        decode_batch_into(encode_batch(&evs[..3]), &mut out).unwrap();
        assert_eq!(out, evs[..3]);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let ev = sample_event();
        let mut buf = BytesMut::new();
        encode_event(&mut buf, &ev);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            // every prefix must fail cleanly
            assert!(decode_event(&mut partial).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn garbage_tag_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 0); // type
        put_varint(&mut buf, 0); // req
        put_varint(&mut buf, 0); // ts
        put_varint(&mut buf, 1); // arity
        buf.put_u8(200); // bogus tag
        assert!(decode_event(&mut buf.freeze()).is_err());
    }

    #[test]
    fn trailing_bytes_in_batch_rejected() {
        let frame = encode_batch(&[sample_event()]);
        let mut extended = BytesMut::from(&frame[..]);
        extended.put_u8(0);
        assert!(decode_batch(extended.freeze()).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn versioned_frames_decode_identically_to_legacy() {
        let evs: Vec<Event> = (0..40)
            .map(|i| {
                Event::new(
                    EventTypeId(1),
                    RequestId(i),
                    i as i64,
                    vec![
                        Value::Long(i as i64 % 5),
                        Value::Str(format!("v{}", i % 3)),
                        if i % 4 == 0 {
                            Value::Null
                        } else {
                            Value::Double(0.5)
                        },
                    ],
                )
            })
            .collect();
        let legacy = encode_batch(&evs);
        let row = encode_batch_format(&evs, WireFormat::Row);
        let col = encode_batch_format(&evs, WireFormat::Columnar);
        assert_eq!(&row[..2], &[0x00, FORMAT_ROW]);
        assert_eq!(&col[..2], &[0x00, FORMAT_COLUMNAR]);
        assert_eq!(decode_batch(legacy).unwrap(), evs);
        assert_eq!(decode_batch(row).unwrap(), evs);
        assert_eq!(
            decode_batch(col).unwrap(),
            evs,
            "row-vs-columnar differential"
        );
    }

    #[test]
    fn legacy_empty_frame_still_decodes() {
        // the legacy empty frame is the single byte 0x00 — it must not be
        // mistaken for a versioned header
        let frame = encode_batch(&[]);
        assert_eq!(&frame[..], &[0x00]);
        assert_eq!(decode_batch(frame).unwrap(), vec![]);
        for fmt in [WireFormat::Row, WireFormat::Columnar] {
            assert_eq!(decode_batch(encode_batch_format(&[], fmt)).unwrap(), vec![]);
        }
    }

    #[test]
    fn unknown_format_byte_rejected() {
        let frame = Bytes::copy_from_slice(&[0x00, 0x77, 0x01]);
        assert!(decode_batch(frame).is_err());
    }

    #[test]
    fn varints_are_compact_for_small_values() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        put_varint(&mut buf, 300);
        assert_eq!(buf.len(), 3);
    }
}
