//! One codec trait and one declarative schema for every type that crosses
//! the wire or the disk.
//!
//! [`Codec`] has four directions: v1 JSON write and read, binary encode and
//! decode. The v2 wire protocol and the snapshot store share the binary form.
//! [`schema!`](crate::schema!) generates all four from a list of a type's
//! fields, so a field is named once, not once per direction.
//!
//! * **Structs** list their fields in order. A field that may be absent
//!   from v1 input gives its fallback after `=`; `struct T: default { .. }`
//!   falls back to `T::default()` for every field. Each fallback is written
//!   here and nowhere else. v1 writes an object with the fields in that
//!   order; binary writes the fields back to back.
//! * **Enums** list each variant's binary tag (written out, never derived
//!   from variant order), its v1 name and its fields. `external` tagging
//!   writes a variant without fields as its name and one with fields as a
//!   one-key object (`"QrPivot"`, `{"Knn":{"k":3}}`); `tag "cmd"` is
//!   internal tagging on a key (`{"cmd":"locate","site":..}`). Binary writes
//!   the tag byte, then the fields.
//! * **`binary`** structs and enums never travel as JSON and generate only
//!   the binary half.
//!
//! The basic impls fix the leaf encodings: `Option` is `null` (or a missing
//! key) in v1 and a presence byte in binary; `Vec` is an array in v1 and a
//! `u64` count then the elements in binary; numbers follow
//! [`JsonWriter`]'s rules; a [`Matrix`] is `{"rows","cols","data"}` in v1
//! and `rows, cols, data` in binary.
//!
//! v1 decoding is lenient in three ways: `null` reads as NaN for floats
//! (non-finite floats write as `null`), missing fields with a fallback take
//! it, and unknown keys are ignored. Integers must be integral. Errors name
//! the failing field, but that context is only built on the error path.

use crate::codec::{Dec, Enc};
use crate::error::{Result, WireError};
use crate::json::{self, JsonValue, JsonWriter};
use taf_linalg::Matrix;

/// A type with a v1 JSON form and a binary form.
pub trait Codec: Sized {
    /// Writes the v1 JSON form. Binary-only types keep this default: they
    /// live only in the snapshot store and the journal, never in a v1 frame.
    fn write_json(&self, _w: &mut JsonWriter<'_>) {
        unreachable!("{} has no v1 JSON form", std::any::type_name::<Self>())
    }
    /// Reads the v1 JSON form. Types with no v1 reader reject every document:
    /// binary-only types, and `MeasurementPlan`, whose plan file is only
    /// ever written.
    fn read_json(_v: &JsonValue) -> Result<Self> {
        Err(WireError::Malformed(format!(
            "{} has no v1 JSON reader",
            std::any::type_name::<Self>()
        )))
    }
    /// Appends the binary form.
    fn encode(&self, e: &mut Enc);
    /// Reads the binary form.
    fn decode(d: &mut Dec<'_>) -> Result<Self>;
    /// The value of a v1 object key that is absent; `None` makes the key
    /// required. Only `Option` overrides it.
    fn absent() -> Option<Self> {
        None
    }
}

/// Decodes one complete v1 JSON document.
pub fn from_json<T: Codec>(text: &str) -> Result<T> {
    T::read_json(&json::parse(text)?)
}

/// Encodes `value` as one compact v1 JSON document.
pub fn to_json<T: Codec>(value: &T) -> String {
    let mut buf = Vec::new();
    value.write_json(&mut JsonWriter::new(&mut buf));
    String::from_utf8(buf).expect("the JSON writer emits UTF-8")
}

/// Decodes one complete binary payload; trailing bytes are an error.
pub fn from_bytes<T: Codec>(data: &[u8]) -> Result<T> {
    let mut d = Dec::new(data);
    let value = T::decode(&mut d)?;
    d.finish()?;
    Ok(value)
}

impl JsonWriter<'_> {
    /// Writes one object member: the key, then the value's v1 form.
    pub fn field<T: Codec>(&mut self, name: &str, value: &T) {
        self.key(name);
        value.write_json(self);
    }
}

/// Reads object member `name` of the type named `ctx`; an absent key is an
/// error unless the field type has an [`Codec::absent`] value.
pub fn field<T: Codec>(v: &JsonValue, ctx: &'static str, name: &'static str) -> Result<T> {
    match v.get(name) {
        Some(x) => T::read_json(x).map_err(|e| e.in_field(ctx, name)),
        None => T::absent()
            .ok_or_else(|| WireError::Malformed(format!("{ctx}: missing field `{name}`"))),
    }
}

/// Reads object member `name`, falling back to `fallback()` when absent.
pub fn field_or<T: Codec>(
    v: &JsonValue,
    ctx: &'static str,
    name: &'static str,
    fallback: impl FnOnce() -> T,
) -> Result<T> {
    match v.get(name) {
        Some(x) => T::read_json(x).map_err(|e| e.in_field(ctx, name)),
        None => Ok(fallback()),
    }
}

/// Writes a slice as a v1 array.
pub fn write_seq<T: Codec>(w: &mut JsonWriter<'_>, items: &[T]) {
    w.begin_arr();
    for item in items {
        item.write_json(w);
    }
    w.end_arr();
}

/// Encodes a slice as a count, then each element.
pub fn encode_seq<T: Codec>(items: &[T], e: &mut Enc) {
    e.usize(items.len());
    for item in items {
        item.encode(e);
    }
}

static NULL: JsonValue = JsonValue::Null;

/// Splits an externally tagged enum into its variant name and body: a bare
/// string is a variant with no body, a one-key object holds the body.
pub fn external_tag<'a>(v: &'a JsonValue, ctx: &'static str) -> Result<(&'a str, &'a JsonValue)> {
    match v {
        JsonValue::Str(name) => Ok((name, &NULL)),
        JsonValue::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, &pairs[0].1)),
        _ => Err(WireError::Malformed(format!("{ctx}: expected a variant"))),
    }
}

/// The variant name of an internally tagged enum, stored under `key`.
pub fn internal_tag<'a>(v: &'a JsonValue, ctx: &'static str, key: &str) -> Result<&'a str> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| WireError::Malformed(format!("{ctx}: missing or non-string tag `{key}`")))
}

/// The error for a v1 variant name the schema does not list.
pub fn unknown_variant(ctx: &str, name: &str) -> WireError {
    WireError::Malformed(format!("{ctx}: unknown variant `{name}`"))
}

/// The error for a binary tag the schema does not list.
pub fn unknown_tag(ctx: &str, tag: u8) -> WireError {
    WireError::Malformed(format!("{ctx}: unknown tag {tag}"))
}

// ---------------------------------------------------------------------------
// Basic types
// ---------------------------------------------------------------------------

impl Codec for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.f64_val(*self);
    }
    /// A number is itself; `null` is NaN (non-finite floats write as `null`).
    fn read_json(v: &JsonValue) -> Result<Self> {
        match v {
            JsonValue::Num(n) => Ok(*n),
            JsonValue::Null => Ok(f64::NAN),
            _ => Err(WireError::malformed("expected a number")),
        }
    }
    fn encode(&self, e: &mut Enc) {
        e.f64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        d.f64()
    }
}

impl Codec for u64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.u64_val(*self);
    }
    /// Must be integral; out-of-range values saturate.
    fn read_json(v: &JsonValue) -> Result<Self> {
        match v {
            JsonValue::Num(n) if n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(WireError::malformed("expected an integer")),
        }
    }
    fn encode(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        d.u64()
    }
}

impl Codec for usize {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.usize_val(*self);
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        Ok(u64::read_json(v)? as usize)
    }
    fn encode(&self, e: &mut Enc) {
        e.usize(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        d.usize()
    }
}

impl Codec for u32 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.u32_val(*self);
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        Ok(u64::read_json(v)? as u32)
    }
    fn encode(&self, e: &mut Enc) {
        e.u32(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        d.u32()
    }
}

impl Codec for bool {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.bool_val(*self);
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        v.as_bool().ok_or_else(|| WireError::malformed("expected a bool"))
    }
    fn encode(&self, e: &mut Enc) {
        e.bool(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        d.bool()
    }
}

impl Codec for String {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str_val(self);
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        v.as_str().map(str::to_string).ok_or_else(|| WireError::malformed("expected a string"))
    }
    fn encode(&self, e: &mut Enc) {
        e.str(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        d.str()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(x) => x.write_json(w),
            None => w.null_val(),
        }
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        match v {
            JsonValue::Null => Ok(None),
            _ => T::read_json(v).map(Some),
        }
    }
    fn encode(&self, e: &mut Enc) {
        match self {
            Some(x) => {
                e.u8(1);
                x.encode(e);
            }
            None => e.u8(0),
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        match d.u8()? {
            0 => Ok(None),
            1 => T::decode(d).map(Some),
            v => Err(WireError::Malformed(format!("invalid option tag {v}"))),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        write_seq(w, self);
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        v.as_arr()
            .ok_or_else(|| WireError::malformed("expected an array"))?
            .iter()
            .map(T::read_json)
            .collect()
    }
    fn encode(&self, e: &mut Enc) {
        encode_seq(self, e);
    }
    /// Reserves no more memory than the payload has bytes left, so a hostile
    /// count cannot drive a huge allocation before the elements run out.
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        let n = d.count()?;
        let mut out = Vec::with_capacity(n.min(d.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Box<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w);
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        T::read_json(v).map(Box::new)
    }
    fn encode(&self, e: &mut Enc) {
        (**self).encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        T::decode(d).map(Box::new)
    }
}

/// Row-major, shape first: `{"rows":r,"cols":c,"data":[..]}` in v1.
impl Codec for Matrix {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.field("rows", &self.rows());
        w.field("cols", &self.cols());
        w.key("data");
        write_seq(w, self.as_slice());
        w.end_obj();
    }
    fn read_json(v: &JsonValue) -> Result<Self> {
        let rows = field(v, "Matrix", "rows")?;
        let cols = field(v, "Matrix", "cols")?;
        Matrix::from_vec(rows, cols, field(v, "Matrix", "data")?)
            .map_err(|e| WireError::Malformed(format!("Matrix: {e}")))
    }
    fn encode(&self, e: &mut Enc) {
        e.matrix(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        d.matrix()
    }
}

/// Declares a type's fields once and generates its [`Codec`] impl; see the
/// [module docs](mod@crate::schema) for the forms.
///
/// ```text
/// schema! { struct LinkSample { link: usize, t_s: f64, rss_dbm: f64 } }
/// schema! { struct IngestConfig: default { window_capacity: usize, .. } }
/// schema! {
///     enum Aggregator: tag "kind" {
///         Median = 0 "median",
///         Ewma = 1 "ewma" { alpha: f64 },
///     }
/// }
/// schema! { struct SurveyRecord: binary { epoch: u64, y: Vec<f64>, fresh: Vec<bool> } }
/// ```
#[macro_export]
macro_rules! schema {
    (struct $name:ident: default { $($f:ident: $t:ty),* $(,)? }) => {
        $crate::schema! { struct $name { $($f: $t = <$name as Default>::default().$f),* } }
    };
    (struct $name:ident { $($f:ident: $t:ty $(= $d:expr)?),* $(,)? }) => {
        impl $crate::Codec for $name {
            fn write_json(&self, w: &mut $crate::JsonWriter<'_>) {
                w.begin_obj();
                $(w.field::<$t>(stringify!($f), &self.$f);)*
                w.end_obj();
            }
            fn read_json(v: &$crate::JsonValue) -> $crate::Result<Self> {
                Ok($name { $($f: $crate::schema!(@read v, stringify!($name), $f: $t $(= $d)?),)* })
            }
            $crate::schema!(@binary $name { $($f: $t),* });
        }
    };
    (struct $name:ident: binary { $($f:ident: $t:ty),* $(,)? }) => {
        impl $crate::Codec for $name {
            $crate::schema!(@binary $name { $($f: $t),* });
        }
    };
    (enum $name:ident: external {
        $($v:ident = $tag:literal $vname:literal $({ $($f:ident: $t:ty $(= $d:expr)?),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::Codec for $name {
            fn write_json(&self, w: &mut $crate::JsonWriter<'_>) {
                match self {
                    $($name::$v { $($($f,)*)? } => {
                        $crate::schema!(@external w, $vname $(, $($f: $t),*)?)
                    })*
                }
            }
            fn read_json(v: &$crate::JsonValue) -> $crate::Result<Self> {
                #[allow(unused_variables)] // by enums with only unit variants
                let (tag, body) = $crate::schema::external_tag(v, stringify!($name))?;
                Ok(match tag {
                    $($vname => $name::$v { $($(
                        $f: $crate::schema!(@read body, concat!(stringify!($name), "::", stringify!($v)), $f: $t $(= $d)?),
                    )*)? },)*
                    other => return Err($crate::schema::unknown_variant(stringify!($name), other)),
                })
            }
            $crate::schema!(@binary_enum $name { $($tag $v { $($($f: $t),*)? })* });
        }
    };
    (enum $name:ident: tag $key:literal {
        $($v:ident = $tag:literal $vname:literal $({ $($f:ident: $t:ty $(= $d:expr)?),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::Codec for $name {
            fn write_json(&self, w: &mut $crate::JsonWriter<'_>) {
                w.begin_obj();
                w.key($key);
                match self {
                    $($name::$v { $($($f,)*)? } => {
                        w.str_val($vname);
                        $($(w.field::<$t>(stringify!($f), $f);)*)?
                    })*
                }
                w.end_obj();
            }
            fn read_json(v: &$crate::JsonValue) -> $crate::Result<Self> {
                Ok(match $crate::schema::internal_tag(v, stringify!($name), $key)? {
                    $($vname => $name::$v { $($(
                        $f: $crate::schema!(@read v, concat!(stringify!($name), "::", stringify!($v)), $f: $t $(= $d)?),
                    )*)? },)*
                    other => return Err($crate::schema::unknown_variant(stringify!($name), other)),
                })
            }
            $crate::schema!(@binary_enum $name { $($tag $v { $($($f: $t),*)? })* });
        }
    };
    (enum $name:ident: binary {
        $($v:ident = $tag:literal $({ $($f:ident: $t:ty),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::Codec for $name {
            $crate::schema!(@binary_enum $name { $($tag $v { $($($f: $t),*)? })* });
        }
    };

    // Internal rules.
    (@read $v:ident, $ctx:expr, $f:ident: $t:ty) => {
        $crate::schema::field::<$t>($v, $ctx, stringify!($f))?
    };
    (@read $v:ident, $ctx:expr, $f:ident: $t:ty = $d:expr) => {
        $crate::schema::field_or::<$t>($v, $ctx, stringify!($f), || $d)?
    };
    (@external $w:ident, $vname:literal) => {
        $w.str_val($vname)
    };
    (@external $w:ident, $vname:literal, $($f:ident: $t:ty),*) => {{
        $w.begin_obj();
        $w.key($vname);
        $w.begin_obj();
        $($w.field::<$t>(stringify!($f), $f);)*
        $w.end_obj();
        $w.end_obj();
    }};
    (@binary $name:ident { $($f:ident: $t:ty),* }) => {
        fn encode(&self, e: &mut $crate::Enc) {
            $(<$t as $crate::Codec>::encode(&self.$f, e);)*
        }
        fn decode(d: &mut $crate::Dec<'_>) -> $crate::Result<Self> {
            Ok($name { $($f: <$t as $crate::Codec>::decode(d)?,)* })
        }
    };
    (@binary_enum $name:ident { $($tag:literal $v:ident { $($f:ident: $t:ty),* })* }) => {
        fn encode(&self, e: &mut $crate::Enc) {
            match self {
                $($name::$v { $($f,)* } => {
                    e.u8($tag);
                    $(<$t as $crate::Codec>::encode($f, e);)*
                })*
            }
        }
        fn decode(d: &mut $crate::Dec<'_>) -> $crate::Result<Self> {
            Ok(match d.u8()? {
                $($tag => $name::$v { $($f: <$t as $crate::Codec>::decode(d)?,)* },)*
                other => return Err($crate::schema::unknown_tag(stringify!($name), other)),
            })
        }
    };
}
