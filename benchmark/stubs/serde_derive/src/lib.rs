//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! No `syn`/`quote` here (there is no registry to fetch them from): the
//! item is parsed straight off the token stream and the impl is emitted
//! as source text. Supported: non-generic structs (named, tuple, unit)
//! and enums (unit, tuple and struct variants), the container attributes
//! `tag = "..."` and `rename_all = "snake_case"`, and the field attribute
//! `default`. Anything else is a compile error naming what was met, so a
//! later change that needs more finds out at build time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One field of a struct or struct variant.
struct Field {
    name: String,
    default: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    tag: Option<String>,
    snake_case: bool,
    body: Body,
}

/// `serde(...)` attribute contents met on a container or field.
#[derive(Default)]
struct SerdeAttrs {
    tag: Option<String>,
    snake_case: bool,
    default: bool,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn unquote(literal: &str) -> String {
    literal.trim_matches('"').to_string()
}

fn parse_serde_attr(group: TokenStream, into: &mut SerdeAttrs) {
    let mut it = group.into_iter().peekable();
    while let Some(tok) = it.next() {
        let key = match tok {
            TokenTree::Ident(i) => i.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            other => panic!("serde stand-in: unexpected token `{other}` in #[serde(...)]"),
        };
        let value = match it.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                it.next();
                match it.next() {
                    Some(TokenTree::Literal(l)) => Some(unquote(&l.to_string())),
                    other => panic!("serde stand-in: expected a string after `{key} =`, found {other:?}"),
                }
            }
            _ => None,
        };
        match (key.as_str(), value) {
            ("tag", Some(v)) => into.tag = Some(v),
            ("rename_all", Some(v)) if v == "snake_case" => into.snake_case = true,
            ("default", None) => into.default = true,
            (k, v) => panic!("serde stand-in: unsupported attribute `{k}` (value {v:?})"),
        }
    }
}

/// Consume leading `#[...]` attributes, collecting the `serde(...)` ones.
fn take_attrs(it: &mut Tokens) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("serde stand-in: `#` not followed by [...]");
        };
        let mut inner = g.stream().into_iter();
        if let Some(TokenTree::Ident(i)) = inner.next() {
            if i.to_string() == "serde" {
                if let Some(TokenTree::Group(args)) = inner.next() {
                    parse_serde_attr(args.stream(), &mut attrs);
                }
            }
        }
    }
    attrs
}

/// Consume `pub`, `pub(crate)`, `pub(in ...)` if present.
fn take_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consume tokens up to (and including) the next comma that is not inside
/// `<...>`; groups are single tokens already. Returns whether anything
/// was consumed before the comma.
fn skip_to_comma(it: &mut Tokens) -> bool {
    let mut depth = 0i32;
    let mut any = false;
    for tok in it.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return any,
                _ => {}
            }
        }
        any = true;
    }
    any
}

fn parse_named(group: TokenStream) -> Vec<Field> {
    let mut it = group.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut it);
        take_visibility(&mut it);
        let Some(tok) = it.next() else { break };
        let TokenTree::Ident(name) = tok else {
            panic!("serde stand-in: expected a field name, found `{tok}`");
        };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde stand-in: expected `:` after field `{name}`, found {other:?}"),
        }
        skip_to_comma(&mut it);
        fields.push(Field {
            name: name.to_string(),
            default: attrs.default,
        });
    }
    fields
}

fn count_tuple(group: TokenStream) -> usize {
    let mut it = group.into_iter().peekable();
    let mut n = 0;
    while it.peek().is_some() {
        take_attrs(&mut it);
        take_visibility(&mut it);
        if skip_to_comma(&mut it) {
            n += 1;
        }
    }
    n
}

fn parse_variants(group: TokenStream) -> Vec<Variant> {
    let mut it = group.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        take_attrs(&mut it);
        let Some(tok) = it.next() else { break };
        let TokenTree::Ident(name) = tok else {
            panic!("serde stand-in: expected a variant name, found `{tok}`");
        };
        let shape = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple(g.stream());
                it.next();
                Shape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named(g.stream());
                it.next();
                Shape::Named(fields)
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, then the separating comma.
        skip_to_comma(&mut it);
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    let attrs = take_attrs(&mut it);
    take_visibility(&mut it);
    let keyword = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected a type name, found {other:?}"),
    };
    if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde stand-in: generic type `{name}` is not supported");
    }
    let body = match (keyword.as_str(), it.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named(g.stream())))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(count_tuple(g.stream())))
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream()))
        }
        (k, other) => panic!("serde stand-in: cannot derive for `{k} {name}` (next token {other:?})"),
    };
    Item {
        name,
        tag: attrs.tag,
        snake_case: attrs.snake_case,
        body,
    }
}

/// serde's `rename_all = "snake_case"` rule for variant names.
fn snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.char_indices() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

const SER: &str = "::serde::Serialize::serialize";
const DE: &str = "::serde::Deserialize::deserialize";

/// `out.key("a"); serialize(<prefix>a, out);` for each named field.
fn write_named(fields: &[Field], prefix: &str) -> String {
    fields
        .iter()
        .map(|f| format!("out.key(\"{0}\"); {SER}({prefix}{0}, out);", f.name))
        .collect()
}

/// `a: field(fields, "a")?, ...` for each named field.
fn read_named(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| {
            let reader = if f.default { "field_or_default" } else { "field" };
            format!("{0}: ::serde::json::{reader}(fields, \"{0}\")?,", f.name)
        })
        .collect()
}

fn bindings(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("f{i}")).collect()
}

fn serialize_body(item: &Item) -> String {
    let name = &item.name;
    match &item.body {
        Body::Struct(Shape::Unit) => "out.raw(\"null\");".into(),
        Body::Struct(Shape::Tuple(1)) => format!("{SER}(&self.0, out);"),
        Body::Struct(Shape::Tuple(n)) => {
            let elems: String = (0..*n)
                .map(|i| format!("out.element(); {SER}(&self.{i}, out);"))
                .collect();
            format!("out.begin_array(); {elems} out.end_array();")
        }
        Body::Struct(Shape::Named(fields)) => {
            format!(
                "out.begin_object(); {} out.end_object();",
                write_named(fields, "&self.")
            )
        }
        Body::Enum(variants) if variants.is_empty() => "match *self {}".into(),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let wire = if item.snake_case { snake(&v.name) } else { v.name.clone() };
                    let vname = &v.name;
                    match (&item.tag, &v.shape) {
                        (None, Shape::Unit) => format!("{name}::{vname} => out.string(\"{wire}\"),"),
                        (None, Shape::Tuple(1)) => format!(
                            "{name}::{vname}(f0) => {{ out.begin_object(); out.key(\"{wire}\"); \
                             {SER}(f0, out); out.end_object(); }}"
                        ),
                        (None, Shape::Tuple(n)) => {
                            let binds = bindings(*n);
                            let elems: String = binds
                                .iter()
                                .map(|b| format!("out.element(); {SER}({b}, out);"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => {{ out.begin_object(); out.key(\"{wire}\"); \
                                 out.begin_array(); {elems} out.end_array(); out.end_object(); }}",
                                binds.join(", ")
                            )
                        }
                        (None, Shape::Named(fields)) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => {{ out.begin_object(); out.key(\"{wire}\"); \
                                 out.begin_object(); {} out.end_object(); out.end_object(); }}",
                                binds.join(", "),
                                write_named(fields, "")
                            )
                        }
                        (Some(tag), Shape::Unit) => format!(
                            "{name}::{vname} => {{ out.begin_object(); out.key(\"{tag}\"); \
                             out.string(\"{wire}\"); out.end_object(); }}"
                        ),
                        (Some(tag), Shape::Tuple(1)) => format!(
                            "{name}::{vname}(f0) => {{ out.begin_object(); out.key(\"{tag}\"); \
                             out.string(\"{wire}\"); out.flatten(f0); out.end_object(); }}"
                        ),
                        (Some(_), Shape::Tuple(_)) => panic!(
                            "serde stand-in: internally tagged `{name}::{vname}` cannot be a tuple variant"
                        ),
                        (Some(tag), Shape::Named(fields)) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => {{ out.begin_object(); out.key(\"{tag}\"); \
                                 out.string(\"{wire}\"); {} out.end_object(); }}",
                                binds.join(", "),
                                write_named(fields, "")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    }
}

fn deserialize_body(item: &Item) -> String {
    let name = &item.name;
    let unknown = format!(
        "other => ::std::result::Result::Err(::serde::json::Error::new(\
         ::std::format!(\"unknown variant `{{}}` of {name}\", other))),"
    );
    match &item.body {
        Body::Struct(Shape::Unit) => format!("let _ = value; Ok({name})"),
        Body::Struct(Shape::Tuple(1)) => format!("Ok({name}({DE}(value)?))"),
        Body::Struct(Shape::Tuple(n)) => {
            let elems: String = (0..*n).map(|i| format!("{DE}(&items[{i}])?,")).collect();
            format!("let items = value.as_tuple({n})?; Ok({name}({elems}))")
        }
        Body::Struct(Shape::Named(fields)) => format!(
            "let fields = value.as_fields(\"{name}\")?; Ok({name} {{ {} }})",
            read_named(fields)
        ),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let wire = if item.snake_case { snake(&v.name) } else { v.name.clone() };
                    let vname = &v.name;
                    match (&item.tag, &v.shape) {
                        (None, Shape::Unit) => {
                            format!("(\"{wire}\", _) => Ok({name}::{vname}),")
                        }
                        (None, Shape::Tuple(1)) => format!(
                            "(\"{wire}\", ::std::option::Option::Some(body)) => \
                             Ok({name}::{vname}({DE}(body)?)),"
                        ),
                        (None, Shape::Tuple(n)) => {
                            let elems: String =
                                (0..*n).map(|i| format!("{DE}(&items[{i}])?,")).collect();
                            format!(
                                "(\"{wire}\", ::std::option::Option::Some(body)) => {{ \
                                 let items = body.as_tuple({n})?; Ok({name}::{vname}({elems})) }}"
                            )
                        }
                        (None, Shape::Named(fields)) => format!(
                            "(\"{wire}\", ::std::option::Option::Some(body)) => {{ \
                             let fields = body.as_fields(\"{name}::{vname}\")?; \
                             Ok({name}::{vname} {{ {} }}) }}",
                            read_named(fields)
                        ),
                        (Some(_), Shape::Unit) => format!("\"{wire}\" => Ok({name}::{vname}),"),
                        (Some(_), Shape::Tuple(1)) => {
                            format!("\"{wire}\" => Ok({name}::{vname}({DE}(value)?)),")
                        }
                        (Some(_), Shape::Tuple(_)) => panic!(
                            "serde stand-in: internally tagged `{name}::{vname}` cannot be a tuple variant"
                        ),
                        (Some(_), Shape::Named(fields)) => format!(
                            "\"{wire}\" => Ok({name}::{vname} {{ {} }}),",
                            read_named(fields)
                        ),
                    }
                })
                .collect();
            match &item.tag {
                None => format!(
                    "match value.as_variant(\"{name}\")? {{ {arms} \
                     (other, _) => ::std::result::Result::Err(::serde::json::Error::new(\
                     ::std::format!(\"unknown variant `{{}}` of {name}\", other))), }}"
                ),
                Some(tag) => format!(
                    "let fields = value.as_fields(\"{name}\")?; \
                     match ::serde::json::tag(fields, \"{tag}\")? {{ {arms} {unknown} }}"
                ),
            }
        }
    }
}

/// Derive the stand-in's `Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {} {{ \
         fn serialize(&self, out: &mut ::serde::json::JsonWriter) {{ {} }} }}",
        item.name,
        serialize_body(&item)
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl parses")
}

/// Derive the stand-in's `Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {} {{ \
         #[allow(unused_variables, clippy::let_unit_value)] \
         fn deserialize(value: &::serde::json::Value) \
         -> ::std::result::Result<Self, ::serde::json::Error> {{ {} }} }}",
        item.name,
        deserialize_body(&item)
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl parses")
}
