//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! Hand-rolled over `proc_macro::TokenTree` (no `syn`/`quote` in the
//! offline environment). Supports the shapes this workspace uses:
//! named-field structs, tuple structs (serde newtype semantics for a
//! single field), unit structs, and externally-tagged enums with unit,
//! newtype, tuple and struct variants. Generics are not supported.
//!
//! `Serialize` impls build the serde shim's `Content` tree. `Deserialize`
//! impls are visitors over the shim's `Deserializer`, so a type is read
//! straight from its input in one pass.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attributes(tokens: &mut Tokens) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The bracketed attribute body.
                tokens.next();
            }
            _ => break,
        }
    }
}

fn skip_visibility(tokens: &mut Tokens) {
    if let Some(TokenTree::Ident(i)) = tokens.peek() {
        if i.to_string() == "pub" {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    tokens.next();
                }
            }
        }
    }
}

fn expect_ident(tokens: &mut Tokens, what: &str) -> String {
    match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected {what}, found {other:?}"),
    }
}

/// Parses the fields of a brace-delimited body: `name: Type, ...`.
fn parse_named_fields(group: proc_macro::Group) -> Vec<String> {
    let mut names = Vec::new();
    let mut tokens: Tokens = group.stream().into_iter().peekable();
    loop {
        skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        names.push(name.to_string());
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected ':' after field, found {other:?}"),
        }
        // Skip the type up to a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        loop {
            match tokens.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == ',' && angle_depth == 0 {
                        tokens.next();
                        break;
                    }
                    if c == '<' {
                        angle_depth += 1;
                    } else if c == '>' {
                        angle_depth -= 1;
                    }
                    tokens.next();
                }
                Some(_) => {
                    tokens.next();
                }
            }
        }
    }
    names
}

/// Counts the fields of a paren-delimited tuple body.
fn count_tuple_fields(group: proc_macro::Group) -> usize {
    let mut count = 0usize;
    let mut any = false;
    let mut angle_depth = 0i32;
    for tt in group.stream() {
        any = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                ',' if angle_depth == 0 => count += 1,
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                _ => {}
            }
        }
    }
    if !any {
        0
    } else {
        // Trailing commas are not used in this codebase's tuple structs.
        count + 1
    }
}

fn parse_variants(group: proc_macro::Group) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens: Tokens = group.stream().into_iter().peekable();
    loop {
        skip_attributes(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.clone();
                tokens.next();
                Fields::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.clone();
                tokens.next();
                Fields::Named(parse_named_fields(g))
            }
            _ => Fields::Unit,
        };
        variants.push(Variant {
            name: name.to_string(),
            fields,
        });
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("serde shim derive: expected ',' between variants, found {other:?}"),
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens: Tokens = input.into_iter().peekable();
    skip_attributes(&mut tokens);
    skip_visibility(&mut tokens);
    let kind = expect_ident(&mut tokens, "struct/enum keyword");
    let name = expect_ident(&mut tokens, "type name");
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported ({name})");
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde shim derive: unexpected struct body {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let variants = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => parse_variants(g),
                other => panic!("serde shim derive: unexpected enum body {other:?}"),
            };
            Item::Enum { name, variants }
        }
        other => panic!("serde shim derive: cannot derive for `{other}` items"),
    }
}

// ------------------------------------------------------------ serialize --

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (
            name,
            format!(
                "serializer.serialize_content({})",
                content_expr(fields, None)
            ),
        ),
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                arms.push_str(&serialize_variant_arm(name, v));
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<S: ::serde::Serializer>(&self, serializer: S) \
         -> ::core::result::Result<S::Ok, S::Error> {{\n{body}\n}}\n}}"
    )
}

/// Expression building the `Content` tree for a set of fields. With
/// `bound`, fields are read from the given match-arm bindings instead of
/// `self.` access.
fn content_expr(fields: &Fields, bound: Option<&[String]>) -> String {
    let access = |i: usize, n: &str| match bound {
        Some(names) => names[i].clone(),
        None if n.is_empty() => format!("&self.{i}"),
        None => format!("&self.{n}"),
    };
    match fields {
        Fields::Unit => "::serde::__private::Content::Null".to_string(),
        Fields::Named(names) => {
            let mut inserts = String::new();
            for (i, n) in names.iter().enumerate() {
                inserts.push_str(&format!(
                    "map.insert(\"{n}\".to_string(), ::serde::__private::to_content({}));\n",
                    access(i, n)
                ));
            }
            format!(
                "{{ let mut map = ::serde::__private::Map::new();\n{inserts}\
                 ::serde::__private::Content::Object(map) }}"
            )
        }
        Fields::Tuple(1) => format!("::serde::__private::to_content({})", access(0, "")),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::__private::to_content({})", access(i, "")))
                .collect();
            format!(
                "::serde::__private::Content::Array(vec![{}])",
                items.join(", ")
            )
        }
    }
}

fn serialize_variant_arm(enum_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    match &v.fields {
        Fields::Unit => format!("{enum_name}::{vname} => serializer.serialize_str(\"{vname}\"),\n"),
        Fields::Named(names) => {
            let binds = names.join(", ");
            let inner = content_expr(&v.fields, Some(names));
            format!(
                "{enum_name}::{vname} {{ {binds} }} => {{\n\
                 let inner = {inner};\n\
                 let mut outer = ::serde::__private::Map::new();\n\
                 outer.insert(\"{vname}\".to_string(), inner);\n\
                 serializer.serialize_content(::serde::__private::Content::Object(outer))\n}}\n"
            )
        }
        Fields::Tuple(n) => {
            let names: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
            let binds = names.join(", ");
            let inner = content_expr(&v.fields, Some(&names));
            format!(
                "{enum_name}::{vname}({binds}) => {{\n\
                 let inner = {inner};\n\
                 let mut outer = ::serde::__private::Map::new();\n\
                 outer.insert(\"{vname}\".to_string(), inner);\n\
                 serializer.serialize_content(::serde::__private::Content::Object(outer))\n}}\n"
            )
        }
    }
}

// ---------------------------------------------------------- deserialize --
//
// The generated impls drive the serde shim's visitor model: a struct
// reads its fields from `MapAccess` (keys matched by position in a
// `FIELDS` list, unknown keys skipped, a repeated key keeping its last
// value, a missing one read as `null`), a tuple struct from `SeqAccess`,
// an enum through `EnumAccess`. Field types are left to inference.

const RESULT: &str = "::core::result::Result";
const OPTION: &str = "::core::option::Option";

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, deserialize_struct_body(name, fields)),
        Item::Enum { name, variants } => (name, deserialize_enum_body(name, variants)),
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
         -> {RESULT}<Self, __D::Error> {{\n{body}\n}}\n}}"
    )
}

fn str_list(names: &[String]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!("&[{}]", quoted.join(", "))
}

/// A unit struct `visitor` whose `Visitor` impl produces `path_ty`
/// through the one `visit_*` method given.
fn visitor_item(visitor: &str, path_ty: &str, expecting: &str, method: &str) -> String {
    format!(
        "struct {visitor};\n\
         impl<'de> ::serde::de::Visitor<'de> for {visitor} {{\n\
         type Value = {path_ty};\n\
         fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
         __f.write_str(\"{expecting}\")\n}}\n{method}\n}}\n"
    )
}

/// `visit_map` building `path { names… }`, matching keys against the
/// constant `fields`.
fn visit_map_named(path: &str, path_ty: &str, names: &[String], fields: &str) -> String {
    let mut decls = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, n) in names.iter().enumerate() {
        decls.push_str(&format!("let mut __f{i} = {OPTION}::None;\n"));
        arms.push_str(&format!(
            "{OPTION}::Some({i}) => __f{i} = {OPTION}::Some(\
             ::serde::de::MapAccess::next_value(&mut __map)?),\n"
        ));
        inits.push_str(&format!(
            "{n}: match __f{i} {{ {OPTION}::Some(__v) => __v, \
             {OPTION}::None => ::serde::__private::missing_field::<_, __A::Error>()? }},\n"
        ));
    }
    format!(
        "fn visit_map<__A: ::serde::de::MapAccess<'de>>(self, mut __map: __A) \
         -> {RESULT}<{path_ty}, __A::Error> {{\n{decls}\
         while let {OPTION}::Some(__key) = ::serde::de::MapAccess::next_key_seed(\
         &mut __map, ::serde::__private::FieldSeed({fields}))? {{\n\
         match __key {{\n{arms}\
         _ => {{ ::serde::de::MapAccess::next_value::<::serde::__private::IgnoredAny>(&mut __map)?; }}\n\
         }}\n}}\n\
         {RESULT}::Ok({path} {{ {inits} }})\n}}"
    )
}

/// `visit_seq` building `path(…)` from `n` elements; a missing element
/// reads as `null` and extra elements are skipped.
fn visit_seq_tuple(path: &str, path_ty: &str, n: usize) -> String {
    let mut lets = String::new();
    let mut args = Vec::new();
    for i in 0..n {
        lets.push_str(&format!(
            "let __f{i} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
             {OPTION}::Some(__v) => __v, \
             {OPTION}::None => ::serde::__private::missing_field::<_, __A::Error>()? }};\n"
        ));
        args.push(format!("__f{i}"));
    }
    format!(
        "fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
         -> {RESULT}<{path_ty}, __A::Error> {{\n{lets}\
         while let {OPTION}::Some(::serde::__private::IgnoredAny) = \
         ::serde::de::SeqAccess::next_element(&mut __seq)? {{}}\n\
         {RESULT}::Ok({path}({}))\n}}",
        args.join(", ")
    )
}

fn deserialize_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!(
            "<::serde::__private::IgnoredAny as ::serde::Deserialize>::deserialize(__deserializer)?;\n\
             {RESULT}::Ok({name})"
        ),
        Fields::Tuple(1) => format!(
            "{RESULT}::Ok({name}(::serde::Deserialize::deserialize(__deserializer)?))"
        ),
        Fields::Tuple(n) => format!(
            "{}::serde::Deserializer::deserialize_seq(__deserializer, __Visitor)",
            visitor_item(
                "__Visitor",
                name,
                &format!("array for struct {name}"),
                &visit_seq_tuple(name, name, *n)
            )
        ),
        Fields::Named(names) => format!(
            "const FIELDS: &[&str] = {};\n{}\
             ::serde::Deserializer::deserialize_struct(__deserializer, \"{name}\", FIELDS, __Visitor)",
            str_list(names),
            visitor_item(
                "__Visitor",
                name,
                &format!("object for struct {name}"),
                &visit_map_named(name, name, names, "FIELDS")
            )
        ),
    }
}

fn deserialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut items = String::new();
    let mut arms = String::new();
    for (i, v) in variants.iter().enumerate() {
        let vname = &v.name;
        let path = format!("{name}::{vname}");
        let arm = match &v.fields {
            Fields::Unit => format!(
                "{{ ::serde::de::VariantAccess::unit_variant(__variant)?; {RESULT}::Ok({path}) }}"
            ),
            Fields::Tuple(1) => format!(
                "{RESULT}::Ok({path}(::serde::de::VariantAccess::newtype_variant(__variant)?))"
            ),
            Fields::Tuple(n) => {
                items.push_str(&visitor_item(
                    &format!("__Visitor{i}"),
                    name,
                    &format!("array payload for {path}"),
                    &visit_seq_tuple(&path, name, *n),
                ));
                format!("::serde::de::VariantAccess::tuple_variant(__variant, {n}, __Visitor{i})")
            }
            Fields::Named(names) => {
                items.push_str(&format!(
                    "const __FIELDS{i}: &[&str] = {};\n",
                    str_list(names)
                ));
                items.push_str(&visitor_item(
                    &format!("__Visitor{i}"),
                    name,
                    &format!("object payload for {path}"),
                    &visit_map_named(&path, name, names, &format!("__FIELDS{i}")),
                ));
                format!(
                    "::serde::de::VariantAccess::struct_variant(__variant, __FIELDS{i}, __Visitor{i})"
                )
            }
        };
        arms.push_str(&format!("{i} => {arm},\n"));
    }
    let names: Vec<String> = variants.iter().map(|v| v.name.clone()).collect();
    let visit_enum = format!(
        "fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A) \
         -> {RESULT}<{name}, __A::Error> {{\n\
         let (__tag, __variant) = ::serde::de::EnumAccess::variant_seed(__data, \
         ::serde::__private::VariantSeed {{ name: \"{name}\", variants: VARIANTS }})?;\n\
         match __tag {{\n{arms}\
         _ => {RESULT}::Err(<__A::Error as ::serde::de::Error>::custom(\
         \"variant index out of range for enum {name}\")),\n}}\n}}"
    );
    format!(
        "const VARIANTS: &[&str] = {};\n{items}{}\
         ::serde::Deserializer::deserialize_enum(__deserializer, \"{name}\", VARIANTS, __Visitor)",
        str_list(&names),
        visitor_item(
            "__Visitor",
            name,
            &format!("string or object for enum {name}"),
            &visit_enum
        )
    )
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim derive generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim derive generated invalid Deserialize impl")
}
