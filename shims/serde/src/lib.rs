//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The shim keeps serde's public shape — `Serialize` / `Deserialize`
//! traits generic over `Serializer` / `Deserializer`, plus derive macros —
//! so it stays drop-in replaceable by the real crate.
//!
//! Deserialization is one pass: [`de`] is a trimmed subset of serde's
//! visitor model (`deserialize_any/option/seq/map/struct/enum` driving a
//! `Visitor` through `SeqAccess` / `MapAccess` / `EnumAccess`), and the
//! derive builds each type straight from its input, with no intermediate
//! tree. The self-describing [`content::Content`] tree (`serde_json::Value`)
//! is one more `Deserializer` and `Deserialize` target.
//!
//! Serialization still goes through the tree: every `Serialize` impl
//! produces a `Content`, which `serde_json` then renders. The only
//! serializer in the workspace is JSON output, written once per run, so
//! the tree costs little there.

pub mod content;
pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

/// Private helpers referenced by `serde_derive`-generated code.
#[doc(hidden)]
pub mod __private {
    pub use crate::content::{Content, Map};
    pub use crate::de::{missing_field, FieldSeed, IgnoredAny, VariantSeed};
    pub use crate::ser::to_content;
}
