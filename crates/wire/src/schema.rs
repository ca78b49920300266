//! One codec trait and one declarative schema for every type that crosses
//! the wire or the disk.
//!
//! [`Codec`] has four directions: v1 JSON write and read, binary encode and
//! decode. The v2 wire protocol and the snapshot store share the binary form.
//! [`schema!`](crate::schema!) generates all four from a list of a type's
//! fields, so a field is named once, not once per direction.
//!
//! It has two forms. The *declaring* form takes a whole `pub struct` or
//! `pub enum` — its attributes, doc comments and field types, with the
//! schema's annotations added — and emits the type as well as its impl, so
//! a type is written once. A declared enum also gets `VARIANTS`, each
//! variant's binary tag and v1 name in declaration order, and `tag()`, the
//! binary tag of a value, so a table keyed by the variant follows the
//! declaration. The *impl-only* form lists the fields of a type declared
//! elsewhere and emits only the impl; the declaring form expands into it.
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
//! v1 reading makes one pass over the text with a [`JsonReader`] and builds
//! no tree. Each object's reader matches every key against its field names,
//! decodes the value straight into that field's local, and at the closing
//! brace fills in fallbacks or fails on a missing field. It is lenient in
//! these ways, and in no others:
//!
//! * `null` reads as NaN for floats (non-finite floats write as `null`);
//! * a missing field with a fallback takes it, and a missing `Option` is
//!   `None`;
//! * unknown keys are skipped, though their values must still be valid JSON
//!   within the depth cap;
//! * a repeated key takes the value of its last occurrence, and every
//!   occurrence must decode as the field's type;
//! * an internal tag may stand at any position, and a repeated tag names
//!   the variant by its last occurrence. The tag comes first in everything
//!   this workspace writes; such an object is read in one pass, any other
//!   after one more scan of it to find the tag;
//! * a struct read from a value that is not an object finds every field
//!   absent, so a struct whose fields all have fallbacks reads as those.
//!
//! Integers must be integral and in range. Errors name the failing field,
//! but that context is only built on the error path.

use crate::codec::{Dec, Enc};
use crate::error::{Result, WireError};
use crate::json::{JsonReader, JsonWriter};
use std::borrow::Cow;
use taf_linalg::Matrix;

/// A type with a v1 JSON form and a binary form.
pub trait Codec: Sized {
    /// Writes the v1 JSON form. Binary-only types keep this default: they
    /// live only in the snapshot store and the journal, never in a v1 frame.
    fn write_json(&self, _w: &mut JsonWriter<'_>) {
        unreachable!("{} has no v1 JSON form", std::any::type_name::<Self>())
    }
    /// Reads the v1 JSON value at the cursor. Types with no v1 reader reject
    /// every document: binary-only types, and `MeasurementPlan`, whose plan
    /// file is only ever written.
    fn read_json(_r: &mut JsonReader<'_>) -> Result<Self> {
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

/// Decodes one complete v1 JSON document; trailing text is an error.
pub fn from_json<T: Codec>(text: &str) -> Result<T> {
    let mut r = JsonReader::new(text);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
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

/// Enters the object at the cursor and returns `true`; a value of any other
/// kind is skipped and gives `false`, so a struct read from it finds every
/// field absent.
pub fn open_object(r: &mut JsonReader<'_>) -> Result<bool> {
    if r.peek() == Some(b'{') {
        r.begin_obj()?;
        Ok(true)
    } else {
        r.skip()?;
        Ok(false)
    }
}

/// Reads the value of member `name` of the type named `ctx`.
pub fn member<T: Codec>(
    r: &mut JsonReader<'_>,
    ctx: &'static str,
    name: &'static str,
) -> Result<T> {
    T::read_json(r).map_err(|e| e.in_field(ctx, name))
}

/// A field once its object is read: the member's value, or the type's
/// [`Codec::absent`] value, or a missing-field error.
pub fn required<T: Codec>(value: Option<T>, ctx: &'static str, name: &'static str) -> Result<T> {
    match value {
        Some(v) => Ok(v),
        None => T::absent()
            .ok_or_else(|| WireError::Malformed(format!("{ctx}: missing field `{name}`"))),
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

/// Reads an externally tagged enum: a bare string names a variant with no
/// body, a one-key object names one and holds its body. `variant` gets the
/// name and a reader at the body (at a `null` for a bare name), and must
/// read or skip the body.
pub fn external_tag<'a, T>(
    r: &mut JsonReader<'a>,
    ctx: &'static str,
    variant: impl FnOnce(&str, &mut JsonReader<'a>) -> Result<T>,
) -> Result<T> {
    let not_a_variant = || WireError::Malformed(format!("{ctx}: expected a variant"));
    match r.peek() {
        Some(b'"') => {
            let name = r.str()?;
            variant(&name, &mut JsonReader::new("null"))
        }
        Some(b'{') => {
            r.begin_obj()?;
            let name = r.next_key()?.ok_or_else(not_a_variant)?;
            let value = variant(&name, r)?;
            match r.next_key()? {
                None => Ok(value),
                Some(_) => Err(not_a_variant()),
            }
        }
        _ => Err(not_a_variant()),
    }
}

/// The variant name of the internally tagged object at the cursor: the
/// string value of the last occurrence of `key`. It reads ahead from a copy
/// of the reader, so the cursor does not move.
pub fn internal_tag<'a>(r: &JsonReader<'a>, ctx: &'static str, key: &str) -> Result<Cow<'a, str>> {
    let mut scan = *r;
    let mut tag = None;
    if scan.peek() == Some(b'{') {
        scan.begin_obj()?;
        while let Some(k) = scan.next_key()? {
            if k == key && scan.peek() == Some(b'"') {
                tag = Some(scan.str()?);
            } else {
                if k == key {
                    tag = None;
                }
                scan.skip()?;
            }
        }
    }
    tag.ok_or_else(|| WireError::Malformed(format!("{ctx}: missing or non-string tag `{key}`")))
}

/// Reads an internally tagged enum. `variant(r, name)` reads the object at
/// the cursor as variant `name`; it returns `None` when the last occurrence
/// of the tag names a different variant.
pub fn read_tagged<'a, T>(
    r: &mut JsonReader<'a>,
    ctx: &'static str,
    key: &'static str,
    variant: impl Fn(&mut JsonReader<'a>, &str) -> Result<Option<T>>,
) -> Result<T> {
    let start = *r;
    // A leading tag names the variant unless a later one overrides it.
    let first = leading_tag(&start, key);
    let mut failed = None;
    if let Some(name) = &first {
        match variant(r, name) {
            Ok(Some(value)) => return Ok(value),
            Ok(None) => {}
            Err(e) => failed = Some(e),
        }
        *r = start;
    }
    let name = internal_tag(r, ctx, key)?;
    match failed {
        Some(e) if first.as_deref() == Some(&*name) => Err(e),
        _ => variant(r, &name)?
            .ok_or_else(|| WireError::Malformed(format!("{ctx}: tag `{key}` is inconsistent"))),
    }
}

/// The value of the object's first member, if that member is `key` and its
/// value a string.
fn leading_tag<'a>(r: &JsonReader<'a>, key: &str) -> Option<Cow<'a, str>> {
    let mut probe = *r;
    if probe.peek() != Some(b'{') {
        return None;
    }
    probe.begin_obj().ok()?;
    if probe.next_key().ok()?? != key || probe.peek() != Some(b'"') {
        return None;
    }
    probe.str().ok()
}

/// Reads one occurrence of an internal tag: `true` if it names `variant`.
pub fn tag_names(r: &mut JsonReader<'_>, variant: &str) -> Result<bool> {
    if r.peek() == Some(b'"') {
        Ok(r.str()? == variant)
    } else {
        r.skip().map(|()| false)
    }
}

/// The error for a v1 variant name the schema does not list.
pub fn unknown_variant(ctx: &str, name: &str) -> WireError {
    WireError::Malformed(format!("{ctx}: unknown variant `{name}`"))
}

/// The error for a binary tag the schema does not list.
pub fn unknown_tag(ctx: &str, tag: u8) -> WireError {
    WireError::Malformed(format!("{ctx}: unknown tag {tag}"))
}

/// The error for an integral v1 number outside the target type's range.
fn out_of_range(n: impl std::fmt::Display, ty: &str) -> WireError {
    WireError::Malformed(format!("integer {n} out of range for {ty}"))
}

// ---------------------------------------------------------------------------
// Basic types
// ---------------------------------------------------------------------------

impl Codec for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.f64_val(*self);
    }
    /// A number is itself; `null` is NaN (non-finite floats write as `null`).
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        match r.peek() {
            Some(b'-' | b'0'..=b'9') => r.num(),
            Some(b'n') => r.null().map(|()| f64::NAN),
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
    /// Must be integral and in `[0, 2^64)`.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        if !matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(WireError::malformed("expected an integer"));
        }
        match r.num()? {
            n if n.fract() == 0.0 && (0.0..TWO_POW_64).contains(&n) => Ok(n as u64),
            n if n.fract() == 0.0 => Err(out_of_range(n, "u64")),
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        let n = u64::read_json(r)?;
        usize::try_from(n).map_err(|_| out_of_range(n, "usize"))
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        let n = u64::read_json(r)?;
        u32::try_from(n).map_err(|_| out_of_range(n, "u32"))
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        match r.peek() {
            Some(b't' | b'f') => r.bool(),
            _ => Err(WireError::malformed("expected a bool")),
        }
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        match r.peek() {
            Some(b'"') => r.str().map(Cow::into_owned),
            _ => Err(WireError::malformed("expected a string")),
        }
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        match r.peek() {
            Some(b'n') => r.null().map(|()| None),
            _ => T::read_json(r).map(Some),
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        if r.peek() != Some(b'[') {
            return Err(WireError::malformed("expected an array"));
        }
        r.begin_arr()?;
        let mut items = Vec::new();
        while r.next_elem()? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        T::read_json(r).map(Box::new)
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        let (rows, cols, data) =
            crate::schema!(@object r, "Matrix", { rows: usize, cols: usize, data: Vec<f64> });
        Matrix::from_vec(rows, cols, data).map_err(|e| WireError::Malformed(format!("Matrix: {e}")))
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
/// The declaring form is a `pub struct` or `pub enum`, attributes and doc
/// comments included, with the annotations of the impl-only form added; it
/// emits the type, then the impl, and for an enum also `VARIANTS` and
/// `tag()`. The impl-only form lists the fields of a type declared
/// elsewhere; the declaring form expands into it.
///
/// ```text
/// schema! {
///     /// A request.
///     #[derive(Debug, Clone)]
///     pub enum Request: tag "cmd" {
///         Ping = 13 "ping",
///         Locate = 4 "locate" { site: String, y: Vec<f64>, day: f64 = 0.0 },
///     }
/// }
/// schema! {
///     #[derive(Debug, Clone, Copy, PartialEq)]
///     pub struct LinkSample { pub link: usize, pub t_s: f64, pub rss_dbm: f64 }
/// }
/// schema! { pub struct IngestConfig: default { pub window_capacity: usize, .. } }
/// schema! {
///     pub enum Aggregator: tag "kind" {
///         Median = 0 "median",
///         Ewma = 1 "ewma" { alpha: f64 },
///     }
/// }
/// schema! { pub struct SurveyRecord: binary { pub epoch: u64, pub y: Vec<f64>, .. } }
/// ```
///
/// Hand-written readers read an object's members into a tuple, by the same
/// rules, with `schema!(@object r, "Ctx", { a: T, b: U = fallback })`, in a
/// function returning [`Result`].
#[macro_export]
macro_rules! schema {
    ($(#[$meta:meta])* pub struct $name:ident $(: $mode:ident)? {
        $($(#[$fmeta:meta])* $fvis:vis $f:ident: $t:ty $(= $d:expr)?),* $(,)?
    }) => {
        $(#[$meta])* pub struct $name { $($(#[$fmeta])* $fvis $f: $t,)* }
        $crate::schema! { struct $name $(: $mode)? { $($f: $t $(= $d)?),* } }
    };
    ($(#[$meta:meta])* pub enum $name:ident: $mode:ident $($key:literal)? {
        $($(#[$vmeta:meta])* $v:ident = $tag:literal $($vname:literal)?
            $({ $($(#[$fmeta:meta])* $f:ident: $t:ty $(= $d:expr)?),* $(,)? })?),* $(,)?
    }) => {
        $(#[$meta])* pub enum $name { $($(#[$vmeta])* $v $({ $($(#[$fmeta])* $f: $t,)* })?,)* }
        impl $name {
            /// Each variant's binary tag and v1 name, in declaration order
            /// (the name is empty in a binary-only enum).
            pub const VARIANTS: &'static [(u8, &'static str)] = &[$(($tag, concat!($($vname)?))),*];
            /// The binary tag of this value's variant.
            pub fn tag(&self) -> u8 {
                match self {
                    $($name::$v { .. } => $tag,)*
                }
            }
        }
        $crate::schema! {
            enum $name: $mode $($key)? { $($v = $tag $($vname)? $({ $($f: $t $(= $d)?),* })?),* }
        }
    };
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
            fn read_json(r: &mut $crate::JsonReader<'_>) -> $crate::Result<Self> {
                let ($($f,)*) =
                    $crate::schema!(@object r, stringify!($name), { $($f: $t $(= $d)?),* });
                Ok($name { $($f,)* })
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
            fn read_json(r: &mut $crate::JsonReader<'_>) -> $crate::Result<Self> {
                $crate::schema::external_tag(r, stringify!($name), |name, body| Ok(match name {
                    $($vname => {
                        #[allow(clippy::unused_unit)] // by variants without fields
                        let ($($($f,)*)?) = $crate::schema!(
                            @object body, concat!(stringify!($name), "::", stringify!($v)),
                            { $($($f: $t $(= $d)?),*)? }
                        );
                        $name::$v { $($($f,)*)? }
                    })*
                    other => return Err($crate::schema::unknown_variant(stringify!($name), other)),
                }))
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
            fn read_json(r: &mut $crate::JsonReader<'_>) -> $crate::Result<Self> {
                $crate::schema::read_tagged(r, stringify!($name), $key, |r, name| {
                    // Whether the last tag read names this variant.
                    let mut named = true;
                    let value = match name {
                        $($vname => {
                            #[allow(clippy::unused_unit)] // by variants without fields
                            let ($($($f,)*)?) = $crate::schema!(
                                @object r, concat!(stringify!($name), "::", stringify!($v)),
                                { $($($f: $t $(= $d)?),*)? }, $key => named = $vname
                            );
                            $name::$v { $($($f,)*)? }
                        })*
                        other => return Err($crate::schema::unknown_variant(stringify!($name), other)),
                    };
                    Ok(named.then_some(value))
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

    // Reads the object at the cursor into a tuple of its fields; an internal
    // tag key, when given, records whether each occurrence names `$vname`.
    (@object $r:ident, $ctx:expr, { $($f:ident: $t:ty $(= $d:expr)?),* }
        $(, $key:literal => $named:ident = $vname:literal)?) => {{
        $(let mut $f = None::<$t>;)*
        if $crate::schema::open_object($r)? {
            while let Some(key) = $r.next_key()? {
                match &*key {
                    $(stringify!($f) => $f = Some($crate::schema::member($r, $ctx, stringify!($f))?),)*
                    $($key => $named = $crate::schema::tag_names($r, $vname)?,)?
                    _ => $r.skip()?,
                }
            }
        }
        ($($crate::schema!(@take $ctx, $f: $t $(= $d)?),)*)
    }};
    (@take $ctx:expr, $f:ident: $t:ty) => {
        $crate::schema::required::<$t>($f, $ctx, stringify!($f))?
    };
    (@take $ctx:expr, $f:ident: $t:ty = $d:expr) => {
        match $f {
            Some(value) => value,
            None => $d,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[derive(Debug, PartialEq)]
    struct Probe {
        n: u32,
        note: Option<String>,
        gain: f64,
    }

    crate::schema! { struct Probe { n: u32, note: Option<String>, gain: f64 = 1.5 } }

    #[derive(Debug, PartialEq)]
    struct Knobs {
        depth: u32,
        verbose: bool,
    }

    impl Default for Knobs {
        fn default() -> Self {
            Knobs { depth: 4, verbose: true }
        }
    }

    crate::schema! { struct Knobs: default { depth: u32, verbose: bool } }

    #[derive(Debug, PartialEq)]
    enum Cmd {
        Ping,
        Echo { text: String, times: u32 },
    }

    crate::schema! {
        enum Cmd: tag "cmd" {
            Ping = 0 "ping",
            Echo = 1 "echo" { text: String, times: u32 = 1 },
        }
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line { len: f64 },
    }

    crate::schema! {
        enum Shape: external {
            Dot = 0 "Dot",
            Line = 1 "Line" { len: f64 },
        }
    }

    #[derive(Debug, PartialEq)]
    struct Blob {
        id: u64,
    }

    crate::schema! { struct Blob: binary { id: u64 } }

    crate::schema! {
        /// A struct written through the declaring form.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Reading {
            /// Sensor id.
            pub id: u32,
            /// Gain; 2 when absent from v1 input.
            pub gain: f64 = 2.0,
        }
    }

    crate::schema! {
        /// A tagged enum written through the declaring form.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Op: tag "op" {
            /// A variant without fields.
            Halt = 0 "halt",
            /// A variant with a fallback field.
            Scale = 1 "scale" {
                /// What to scale.
                reading: Reading,
                /// Factor; 1 when absent from v1 input.
                by: f64 = 1.0,
            },
        }
    }

    #[test]
    fn declared_types_round_trip_and_read_their_fallbacks() {
        let reading = Reading { id: 3, gain: 0.5 };
        assert_eq!(to_json(&reading), r#"{"id":3,"gain":0.5}"#);
        assert_eq!(from_json::<Reading>(&to_json(&reading)).unwrap(), reading);
        let mut e = Enc::new();
        reading.encode(&mut e);
        assert_eq!(from_bytes::<Reading>(&e.buf).unwrap(), reading);
        assert_eq!(from_json::<Reading>(r#"{"id":4}"#).unwrap(), Reading { id: 4, gain: 2.0 });

        let scale = Op::Scale { reading: reading.clone(), by: -2.0 };
        assert_eq!(to_json(&scale), r#"{"op":"scale","reading":{"id":3,"gain":0.5},"by":-2}"#);
        assert_eq!(to_json(&Op::Halt), r#"{"op":"halt"}"#);
        for op in [Op::Halt, scale] {
            assert_eq!(from_json::<Op>(&to_json(&op)).unwrap(), op);
            let mut e = Enc::new();
            op.encode(&mut e);
            assert_eq!(from_bytes::<Op>(&e.buf).unwrap(), op);
        }
        assert_eq!(
            from_json::<Op>(r#"{"op":"scale","reading":{"id":1}}"#).unwrap(),
            Op::Scale { reading: Reading { id: 1, gain: 2.0 }, by: 1.0 }
        );
        assert_eq!(from_bytes::<Op>(&[0]).unwrap(), Op::Halt);

        assert_eq!(Op::VARIANTS, [(0, "halt"), (1, "scale")]);
        let scale = Op::Scale { reading: Reading { id: 1, gain: 2.0 }, by: 1.0 };
        for op in [Op::Halt, scale] {
            let mut e = Enc::new();
            op.encode(&mut e);
            assert_eq!(op.tag(), e.buf[0], "tag() is the tag byte the binary form writes");
        }
    }

    #[test]
    fn struct_fields_keep_declaration_order_in_both_forms() {
        let p = Probe { n: 7, note: Some("hi".into()), gain: -0.25 };
        assert_eq!(to_json(&p), r#"{"n":7,"note":"hi","gain":-0.25}"#);
        let mut want = Enc::new();
        want.u32(7);
        want.u8(1);
        want.str("hi");
        want.f64(-0.25);
        let mut got = Enc::new();
        p.encode(&mut got);
        assert_eq!(got.buf, want.buf);
        assert_eq!(from_bytes::<Probe>(&got.buf).unwrap(), p);
        assert_eq!(from_json::<Probe>(&to_json(&p)).unwrap(), p);
    }

    #[test]
    fn absent_fields_take_their_fallback_or_fail_by_name() {
        assert_eq!(
            from_json::<Probe>(r#"{"n":1}"#).unwrap(),
            Probe { n: 1, note: None, gain: 1.5 }
        );
        // `null` is an absent option; unknown keys are ignored.
        assert_eq!(
            from_json::<Probe>(r#"{"n":1,"note":null,"gain":2,"extra":[1]}"#).unwrap(),
            Probe { n: 1, note: None, gain: 2.0 }
        );
        let err = from_json::<Probe>(r#"{"gain":2}"#).unwrap_err().to_string();
        assert!(err.contains("Probe: missing field `n`"), "{err}");
    }

    #[test]
    fn wrong_types_name_the_field() {
        let err = from_json::<Probe>(r#"{"n":"seven"}"#).unwrap_err().to_string();
        assert!(err.contains("Probe.n: expected an integer"), "{err}");
        let err = from_json::<Probe>(r#"{"n":1,"note":3}"#).unwrap_err().to_string();
        assert!(err.contains("Probe.note: expected a string"), "{err}");
        assert!(from_json::<bool>("1").is_err());
        assert!(from_json::<Vec<f64>>(r#"{"a":1}"#).is_err());
    }

    #[test]
    fn from_bytes_rejects_trailing_bytes() {
        let mut buf = 7u64.to_le_bytes().to_vec();
        assert_eq!(from_bytes::<u64>(&buf).unwrap(), 7);
        buf.push(0);
        assert!(matches!(from_bytes::<u64>(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn option_presence_byte_is_validated() {
        assert_eq!(from_bytes::<Option<u32>>(&[0]).unwrap(), None);
        assert_eq!(from_bytes::<Option<u32>>(&[1, 9, 0, 0, 0]).unwrap(), Some(9));
        assert!(matches!(
            from_bytes::<Option<u32>>(&[2, 9, 0, 0, 0]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn vec_decode_stops_when_elements_run_out() {
        // Three elements declared, two present: the count fits the 16 bytes
        // left, the third element is truncated.
        let mut e = Enc::new();
        e.usize(3);
        e.u64(1);
        e.u64(2);
        assert!(matches!(from_bytes::<Vec<u64>>(&e.buf), Err(WireError::Truncated)));
    }

    #[test]
    fn external_tags_are_a_name_or_a_one_key_object() {
        let split = |text: &str| {
            external_tag(&mut JsonReader::new(text), "T", |name, body| {
                Ok((name.to_string(), JsonValue::read(body)?))
            })
        };
        let (name, body) = split(r#""QrPivot""#).unwrap();
        assert_eq!(name, "QrPivot");
        assert!(matches!(body, JsonValue::Null));
        let (name, body) = split(r#"{"Knn":{"k":3}}"#).unwrap();
        assert_eq!(name, "Knn");
        assert_eq!(body.get("k").and_then(JsonValue::as_num), Some(3.0));
        for bad in [r#"{"a":1,"b":2}"#, "{}", "3", "null"] {
            assert!(split(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn internal_tags_must_be_strings() {
        let v = JsonReader::new(r#"{"cmd":"ping"}"#);
        assert_eq!(internal_tag(&v, "Request", "cmd").unwrap(), "ping");
        for bad in [r#"{"cmd":1}"#, r#"{"op":"ping"}"#, r#""ping""#] {
            let err = internal_tag(&JsonReader::new(bad), "Request", "cmd").unwrap_err();
            assert!(err.to_string().contains("Request: missing or non-string tag `cmd`"), "{bad}");
        }
    }

    #[test]
    fn matrix_v1_form_is_shape_then_row_major_data() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[f64::NAN, 4.5]]).unwrap();
        let text = to_json(&m);
        assert_eq!(text, r#"{"rows":2,"cols":2,"data":[1,2,null,4.5]}"#);
        let back: Matrix = from_json(&text).unwrap();
        assert_eq!(back.shape(), (2, 2));
        assert!(back[(1, 0)].is_nan());
        assert_eq!(back[(1, 1)], 4.5);
        let err = from_json::<Matrix>(r#"{"rows":2,"cols":2,"data":[1]}"#).unwrap_err();
        assert!(err.to_string().contains("Matrix: "), "{err}");
    }

    #[test]
    fn a_repeated_key_takes_its_last_value_but_every_occurrence_must_decode() {
        assert_eq!(from_json::<Probe>(r#"{"n":1,"n":2}"#).unwrap().n, 2);
        let err = from_json::<Probe>(r#"{"n":"x","n":2}"#).unwrap_err().to_string();
        assert!(err.contains("Probe.n"), "{err}");
    }

    #[test]
    fn a_struct_read_from_a_non_object_finds_every_field_absent() {
        for text in ["3", "[1,2]", "null", r#""knobs""#] {
            assert_eq!(from_json::<Knobs>(text).unwrap(), Knobs::default(), "{text}");
        }
        assert_eq!(
            from_json::<Knobs>(r#"{"depth":9}"#).unwrap(),
            Knobs { depth: 9, verbose: true }
        );
        let err = from_json::<Probe>("3").unwrap_err().to_string();
        assert!(err.contains("Probe: missing field `n`"), "{err}");
        // The skipped value must still be valid JSON.
        assert!(from_json::<Knobs>("[1,").is_err());
    }

    #[test]
    fn internally_tagged_variants_round_trip_in_both_forms() {
        let echo = Cmd::Echo { text: "hi".into(), times: 2 };
        assert_eq!(to_json(&echo), r#"{"cmd":"echo","text":"hi","times":2}"#);
        assert_eq!(to_json(&Cmd::Ping), r#"{"cmd":"ping"}"#);
        let mut want = Enc::new();
        want.u8(1);
        want.str("hi");
        want.u32(2);
        let mut got = Enc::new();
        echo.encode(&mut got);
        assert_eq!(got.buf, want.buf);
        assert_eq!(from_bytes::<Cmd>(&got.buf).unwrap(), echo);
        assert_eq!(from_json::<Cmd>(&to_json(&echo)).unwrap(), echo);
        assert_eq!(from_bytes::<Cmd>(&[0]).unwrap(), Cmd::Ping);
    }

    #[test]
    fn an_internal_tag_may_stand_at_any_position() {
        assert_eq!(
            from_json::<Cmd>(r#"{"text":"hi","cmd":"echo"}"#).unwrap(),
            Cmd::Echo { text: "hi".into(), times: 1 }
        );
        assert_eq!(
            from_json::<Cmd>(r#"{"times":3,"cmd":"echo","text":"hi"}"#).unwrap(),
            Cmd::Echo { text: "hi".into(), times: 3 }
        );
    }

    #[test]
    fn the_last_occurrence_of_a_repeated_tag_names_the_variant() {
        assert_eq!(
            from_json::<Cmd>(r#"{"cmd":"ping","cmd":"echo","text":"x"}"#).unwrap(),
            Cmd::Echo { text: "x".into(), times: 1 }
        );
        // The leading tag names a variant whose fields are missing, but a
        // later tag overrides it.
        assert_eq!(from_json::<Cmd>(r#"{"cmd":"echo","cmd":"ping"}"#).unwrap(), Cmd::Ping);
        let err = from_json::<Cmd>(r#"{"cmd":"echo"}"#).unwrap_err().to_string();
        assert!(err.contains("Cmd::Echo: missing field `text`"), "{err}");
    }

    #[test]
    fn a_non_string_tag_occurrence_unnames_the_variant() {
        let err = from_json::<Cmd>(r#"{"cmd":"ping","cmd":1}"#).unwrap_err().to_string();
        assert!(err.contains("Cmd: missing or non-string tag `cmd`"), "{err}");
        assert_eq!(from_json::<Cmd>(r#"{"cmd":1,"cmd":"ping"}"#).unwrap(), Cmd::Ping);
        assert!(from_json::<Cmd>("[]").is_err());
    }

    #[test]
    fn unknown_variant_names_and_binary_tags_are_named_errors() {
        let err = from_json::<Cmd>(r#"{"cmd":"pong"}"#).unwrap_err().to_string();
        assert!(err.contains("Cmd: unknown variant `pong`"), "{err}");
        let err = from_bytes::<Cmd>(&[7]).unwrap_err().to_string();
        assert!(err.contains("Cmd: unknown tag 7"), "{err}");
        let err = from_json::<Shape>(r#""Circle""#).unwrap_err().to_string();
        assert!(err.contains("Shape: unknown variant `Circle`"), "{err}");
        let err = from_bytes::<Shape>(&[2]).unwrap_err().to_string();
        assert!(err.contains("Shape: unknown tag 2"), "{err}");
    }

    #[test]
    fn externally_tagged_variants_round_trip_in_both_forms() {
        let line = Shape::Line { len: 2.5 };
        assert_eq!(to_json(&Shape::Dot), r#""Dot""#);
        assert_eq!(to_json(&line), r#"{"Line":{"len":2.5}}"#);
        assert_eq!(from_json::<Shape>(r#""Dot""#).unwrap(), Shape::Dot);
        assert_eq!(from_json::<Shape>(&to_json(&line)).unwrap(), line);
        let mut e = Enc::new();
        line.encode(&mut e);
        assert_eq!(e.buf[0], 1, "the binary tag is the declared one");
        assert_eq!(from_bytes::<Shape>(&e.buf).unwrap(), line);
        let err = from_json::<Shape>(r#"{"Line":{}}"#).unwrap_err().to_string();
        assert!(err.contains("Shape::Line: missing field `len`"), "{err}");
    }

    #[test]
    fn binary_only_types_have_no_v1_reader() {
        let err = from_json::<Blob>(r#"{"id":1}"#).unwrap_err().to_string();
        assert!(err.contains("has no v1 JSON reader"), "{err}");
        let mut e = Enc::new();
        Blob { id: 42 }.encode(&mut e);
        assert_eq!(e.buf, 42u64.to_le_bytes());
        assert_eq!(from_bytes::<Blob>(&e.buf).unwrap(), Blob { id: 42 });
    }

    #[test]
    fn integers_may_be_written_in_any_integral_number_form() {
        assert_eq!(from_json::<u64>("1e3").unwrap(), 1000);
        assert_eq!(from_json::<u64>("2.5e1").unwrap(), 25);
        assert_eq!(from_json::<u64>("100.0").unwrap(), 100);
        assert_eq!(from_json::<u64>("-0").unwrap(), 0);
        assert_eq!(from_json::<u32>("4.294967295e9").unwrap(), u32::MAX);
        assert!(from_json::<u64>("1.5e0").is_err());
        let err = from_json::<u32>("1e10").unwrap_err().to_string();
        assert!(err.contains("out of range for u32"), "{err}");
    }

    #[test]
    fn documents_may_carry_whitespace_but_no_trailing_text() {
        assert_eq!(from_json::<u32>(" 7 \n").unwrap(), 7);
        assert!(from_json::<u32>("1 2").is_err());
        assert!(from_json::<Probe>(r#"{"n":1} x"#).is_err());
        assert!(from_json::<Vec<u32>>("[1][2]").is_err());
    }

    #[test]
    fn boxes_options_and_vectors_wrap_their_element_codec() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        assert_eq!(to_json(&v), "[1,null,3]");
        assert_eq!(from_json::<Vec<Option<u32>>>("[1,null,3]").unwrap(), v);
        let mut e = Enc::new();
        v.encode(&mut e);
        let mut want = Enc::new();
        want.usize(3);
        for x in [Some(1u32), None, Some(3)] {
            x.encode(&mut want);
        }
        assert_eq!(e.buf, want.buf);
        assert_eq!(from_bytes::<Vec<Option<u32>>>(&e.buf).unwrap(), v);
        let boxed = Box::new(5u32);
        assert_eq!(to_json(&boxed), "5");
        assert_eq!(from_json::<Box<u32>>("5").unwrap(), boxed);
        assert!(from_json::<Vec<u32>>("null").is_err(), "only `Option` reads null as absent");
    }
}
