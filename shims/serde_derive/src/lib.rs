//! Derive macros for the offline `serde` stand-in.
//!
//! With no access to crates.io there is no `syn`/`quote`, so this crate
//! parses the derive input straight from the `proc_macro` token stream.
//! That is tractable because the workspace only derives three shapes:
//! named-field structs, newtype structs (`struct Foo(T);`), and enums
//! whose variants are unit or carry one unnamed field (externally tagged,
//! like real serde). Every other shape — unit structs, tuple structs or
//! variants of two or more fields, struct variants, generics — is
//! rejected with a compile error rather than silently mis-serialized;
//! `#[serde(...)]` attributes are not read.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (the shim's `to_value` form).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

/// Derives `serde::Deserialize` (the shim's `from_value` form).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}

// ---------------------------------------------------------------------
// Input model
// ---------------------------------------------------------------------

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    /// `struct Foo { a: A, b: B }` — field names in declaration order.
    NamedStruct(Vec<String>),
    /// `struct Foo(T);`
    Newtype,
    /// `enum Foo { Unit, Newtype(T) }` — variant names, and whether each
    /// carries a payload.
    Enum(Vec<(String, bool)>),
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn ident(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(id) => Some(id.to_string()),
        _ => None,
    }
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

/// Advance past `#[...]` attributes and `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        if i < toks.len() && is_punct(&toks[i], '#') {
            i += 2; // '#' + bracketed group
            continue;
        }
        if i < toks.len() && ident(&toks[i]).as_deref() == Some("pub") {
            i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
            continue;
        }
        return i;
    }
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&toks, 0);
    let kw = ident(&toks[i]).expect("serde_derive: expected `struct` or `enum`");
    i += 1;
    let name = ident(&toks[i]).expect("serde_derive: expected type name");
    i += 1;
    if toks.get(i).is_some_and(|t| is_punct(t, '<')) {
        panic!("serde_derive shim: generic types are not supported (derive on `{name}`)");
    }
    let kind = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis
                    && count_tuple_fields(g.stream()) == 1 =>
            {
                Kind::Newtype
            }
            _ => panic!(
                "serde_derive shim: only named-field and one-field tuple structs are supported \
                 (derive on `{name}`)"
            ),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            _ => panic!("serde_derive: malformed enum `{name}`"),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    };
    Item { name, kind }
}

/// Names of the fields in a `{ a: A, b: B }` body. Field types are
/// skipped (the generated code never needs them), tracking `<...>` depth
/// so commas inside generic arguments don't split fields.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        let fname = ident(&toks[i]).expect("serde_derive: expected field name");
        i += 1;
        assert!(
            is_punct(&toks[i], ':'),
            "serde_derive: expected `:` after field `{fname}`"
        );
        i += 1;
        fields.push(fname);
        let mut angle = 0i32;
        while i < toks.len() {
            if is_punct(&toks[i], '<') {
                angle += 1;
            } else if is_punct(&toks[i], '>') {
                angle -= 1;
            } else if is_punct(&toks[i], ',') && angle == 0 {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    fields
}

/// Number of fields in a `(A, B, C)` body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut angle = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for t in &toks {
        if is_punct(t, '<') {
            angle += 1;
            trailing_comma = false;
        } else if is_punct(t, '>') {
            angle -= 1;
            trailing_comma = false;
        } else if is_punct(t, ',') && angle == 0 {
            count += 1;
            trailing_comma = true;
        } else {
            trailing_comma = false;
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

/// Variants of an enum body: `(name, has_payload)`.
fn parse_variants(body: TokenStream) -> Vec<(String, bool)> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        let vname = ident(&toks[i]).expect("serde_derive: expected variant name");
        i += 1;
        let mut payload = false;
        if let Some(TokenTree::Group(g)) = toks.get(i) {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    assert!(
                        count_tuple_fields(g.stream()) == 1,
                        "serde_derive shim: tuple variants must have exactly one field (`{vname}`)"
                    );
                    payload = true;
                    i += 1;
                }
                Delimiter::Brace => {
                    panic!("serde_derive shim: struct enum variants are not supported (`{vname}`)")
                }
                _ => {}
            }
        }
        while i < toks.len() && !is_punct(&toks[i], ',') {
            i += 1; // discriminants etc.
        }
        i += 1;
        variants.push((vname, payload));
    }
    variants
}

// ---------------------------------------------------------------------
// Codegen (string-built, then re-parsed)
// ---------------------------------------------------------------------

const HEADER: &str = "#[automatically_derived]\n#[allow(unused_variables, clippy::all)]\n";

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Kind::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, payload)| {
                    if *payload {
                        format!(
                            "{name}::{v}(f0) => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from(\"{v}\"), \
                             ::serde::Serialize::to_value(f0))]),"
                        )
                    } else {
                        format!(
                            "{name}::{v} => \
                             ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join("\n"))
        }
    };
    format!(
        "{HEADER}impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("{f}: ::serde::Deserialize::from_value(::serde::field(v, \"{f}\"))?")
                })
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Kind::Newtype => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::Enum(variants) => gen_enum_deserialize(name, variants),
    };
    format!(
        "{HEADER}impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> \
         {{\n{body}\n}}\n}}\n"
    )
}

fn gen_enum_deserialize(name: &str, variants: &[(String, bool)]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|(_, payload)| !payload)
        .map(|(v, _)| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),"))
        .collect();
    let tagged_arms: Vec<String> = variants
        .iter()
        .filter(|(_, payload)| *payload)
        .map(|(v, _)| {
            format!(
                "\"{v}\" => ::std::result::Result::Ok(\
                 {name}::{v}(::serde::Deserialize::from_value(val)?)),"
            )
        })
        .collect();
    format!(
        "match v {{\n\
         ::serde::Value::Str(s) => match s.as_str() {{\n{units}\n\
         other => ::std::result::Result::Err(::serde::Error::new(\
         ::std::format!(\"unknown {name} variant {{other}}\"))),\n}},\n\
         ::serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
         let (tag, val) = &pairs[0];\n\
         match tag.as_str() {{\n{tagged}\n\
         other => ::std::result::Result::Err(::serde::Error::new(\
         ::std::format!(\"unknown {name} variant {{other}}\"))),\n}}\n}},\n\
         _ => ::std::result::Result::Err(::serde::Error::new(\"expected {name} value\")),\n}}",
        units = unit_arms.join("\n"),
        tagged = tagged_arms.join("\n"),
    )
}
