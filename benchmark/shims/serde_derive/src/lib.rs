//! `#[derive(Serialize, Deserialize)]` for the serde stand-in, written
//! against `proc_macro` alone (no `syn`, no `quote`: neither resolves
//! offline).
//!
//! Supported, because the Servet crates use it: structs with named
//! fields and plain type parameters; enums with unit, tuple and struct
//! variants, externally tagged by default or internally tagged with
//! `#[serde(tag = "...")]` (unit and struct variants only);
//! `rename_all = "snake_case"` on enums; `default`, `default = "path"`
//! and `skip_serializing_if = "path"` on fields. Everything else is a
//! compile error rather than a silent difference from the published
//! derive.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("generated code is valid Rust")
}

// ---------------------------------------------------------------- model

enum FieldDefault {
    /// No `default`: a missing key is `Deserialize::missing`.
    None,
    /// `#[serde(default)]`
    Trait,
    /// `#[serde(default = "path")]`
    Path(String),
}

struct Field {
    name: String,
    default: FieldDefault,
    skip_serializing_if: Option<String>,
}

enum Shape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    ident: String,
    /// The name on the wire, after `rename_all`.
    wire: String,
    shape: Shape,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    ident: String,
    type_params: Vec<String>,
    tag: Option<String>,
    body: Body,
}

// -------------------------------------------------------------- parsing

/// The `key` / `key = "value"` entries of every `#[serde(...)]`
/// attribute in `attrs`.
#[derive(Default)]
struct SerdeAttrs(Vec<(String, Option<String>)>);

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Consume leading attributes (doc comments included), keeping the
/// `serde` ones.
fn take_attrs(tokens: &mut Tokens) -> Result<SerdeAttrs, String> {
    let mut out = SerdeAttrs::default();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("expected [...] after #".into());
        };
        let mut inner = group.stream().into_iter();
        if !matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("expected #[serde(...)]".into());
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(token) = args.next() {
            let TokenTree::Ident(key) = token else {
                return Err(format!("unexpected `{token}` in #[serde(...)]"));
            };
            let mut value = None;
            if matches!(args.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                args.next();
                let Some(TokenTree::Literal(lit)) = args.next() else {
                    return Err(format!("expected a string after `{key} =`"));
                };
                let text = lit.to_string();
                let inner = text
                    .strip_prefix('"')
                    .and_then(|t| t.strip_suffix('"'))
                    .ok_or_else(|| format!("expected a plain string literal, got {text}"))?;
                value = Some(inner.to_string());
            }
            out.0.push((key.to_string(), value));
            match args.next() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
                Some(other) => return Err(format!("unexpected `{other}` in #[serde(...)]")),
            }
        }
    }
    Ok(out)
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Consume one type up to (and including) a top-level comma. Angle
/// brackets are plain punctuation in a token stream, so their depth is
/// tracked by hand; every other bracket arrives as one group.
fn skip_type(tokens: &mut Tokens) -> bool {
    let mut depth = 0usize;
    let mut any = false;
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return any,
                _ => {}
            }
        }
        any = true;
    }
    any
}

fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let name = match tokens.next() {
            None => return Ok(fields),
            Some(TokenTree::Ident(name)) => name.to_string(),
            Some(other) => return Err(format!("expected a field name, got `{other}`")),
        };
        if !matches!(tokens.next(), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        skip_type(&mut tokens);
        let mut field = Field {
            name,
            default: FieldDefault::None,
            skip_serializing_if: None,
        };
        for (key, value) in attrs.0 {
            match (key.as_str(), value) {
                ("default", None) => field.default = FieldDefault::Trait,
                ("default", Some(path)) => field.default = FieldDefault::Path(path),
                ("skip_serializing_if", Some(path)) => field.skip_serializing_if = Some(path),
                (other, _) => return Err(format!("unsupported field attribute `{other}`")),
            }
        }
        fields.push(field);
    }
}

fn snake_case(ident: &str) -> String {
    let mut out = String::new();
    for (i, c) in ident.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

fn parse_variants(stream: TokenStream, snake: bool) -> Result<Vec<Variant>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let attrs = take_attrs(&mut tokens)?;
        if let Some((key, _)) = attrs.0.first() {
            return Err(format!("unsupported variant attribute `{key}`"));
        }
        let ident = match tokens.next() {
            None => return Ok(variants),
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            Some(other) => return Err(format!("expected a variant name, got `{other}`")),
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream())?;
                tokens.next();
                Shape::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let mut inner = g.stream().into_iter().peekable();
                let mut arity = 0;
                while inner.peek().is_some() {
                    take_attrs(&mut inner)?;
                    skip_visibility(&mut inner);
                    if skip_type(&mut inner) {
                        arity += 1;
                    }
                }
                tokens.next();
                Shape::Tuple(arity)
            }
            _ => Shape::Unit,
        };
        match tokens.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(other) => return Err(format!("unexpected `{other}` after variant `{ident}`")),
        }
        variants.push(Variant {
            wire: if snake {
                snake_case(&ident)
            } else {
                ident.clone()
            },
            ident,
            shape,
        });
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    let attrs = take_attrs(&mut tokens)?;
    skip_visibility(&mut tokens);
    let keyword = match tokens.next() {
        Some(TokenTree::Ident(k)) => k.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let Some(TokenTree::Ident(ident)) = tokens.next() else {
        return Err("expected the item's name".into());
    };
    let ident = ident.to_string();

    let mut type_params = Vec::new();
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        tokens.next();
        loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => break,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
                Some(TokenTree::Ident(param)) => type_params.push(param.to_string()),
                other => {
                    return Err(format!(
                        "`{ident}`: only plain type parameters are supported, got {other:?}"
                    ))
                }
            }
        }
    }

    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            return Err(format!(
                "`{ident}`: only brace-bodied structs and enums are supported"
            ))
        }
    };

    let mut tag = None;
    let mut snake = false;
    for (key, value) in attrs.0 {
        match (key.as_str(), value.as_deref()) {
            ("tag", Some(name)) if keyword == "enum" => tag = Some(name.to_string()),
            ("rename_all", Some("snake_case")) if keyword == "enum" => snake = true,
            (other, _) => {
                return Err(format!(
                    "`{ident}`: unsupported container attribute `{other}`"
                ))
            }
        }
    }

    let body = match keyword.as_str() {
        "struct" => Body::Struct(parse_fields(body)?),
        "enum" => Body::Enum(parse_variants(body, snake)?),
        other => return Err(format!("cannot derive for `{other}` items")),
    };
    if let (Some(_), Body::Enum(variants)) = (&tag, &body) {
        if let Some(v) = variants.iter().find(|v| matches!(v.shape, Shape::Tuple(_))) {
            return Err(format!(
                "`{ident}::{}`: tuple variants cannot be internally tagged",
                v.ident
            ));
        }
    }
    Ok(Item {
        ident,
        type_params,
        tag,
        body,
    })
}

// ----------------------------------------------------------- generation

/// `impl<T: bound> Trait for Name<T>` header pieces.
fn impl_header(item: &Item, bound: &str) -> (String, String) {
    if item.type_params.is_empty() {
        return (String::new(), item.ident.clone());
    }
    let params: Vec<String> = item
        .type_params
        .iter()
        .map(|p| format!("{p}: {bound}"))
        .collect();
    (
        format!("<{}>", params.join(", ")),
        format!("{}<{}>", item.ident, item.type_params.join(", ")),
    )
}

/// Statements pushing `fields` onto the map `__m`; `access` turns a field
/// name into an expression of reference type.
fn push_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    for f in fields {
        let value = access(&f.name);
        let push = format!(
            "__m.push((::std::string::String::from({:?}), ::serde::Serialize::to_value({value})));",
            f.name
        );
        match &f.skip_serializing_if {
            Some(path) => out.push_str(&format!("if !{path}({value}) {{ {push} }}")),
            None => out.push_str(&push),
        }
    }
    out
}

fn gen_serialize(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "::serde::Serialize");
    let body = match &item.body {
        Body::Struct(fields) => format!(
            "let mut __m = ::serde::Map::with_capacity({});
             {}
             ::serde::Value::Object(__m)",
            fields.len(),
            push_fields(fields, |name| format!("&self.{name}"))
        ),
        Body::Enum(variants) => {
            let arms: String = variants.iter().map(|v| serialize_arm(item, v)).collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl{generics} ::serde::Serialize for {ty} {{
            fn to_value(&self) -> ::serde::Value {{ {body} }}
        }}"
    )
}

fn serialize_arm(item: &Item, v: &Variant) -> String {
    let path = format!("{}::{}", item.ident, v.ident);
    let name = format!("::std::string::String::from({:?})", v.wire);
    let tagged =
        |content: String| format!("::serde::Value::Object(::std::vec![({name}, {content})])");
    match (&v.shape, &item.tag) {
        (Shape::Unit, None) => format!("{path} => ::serde::Value::String({name}),"),
        (Shape::Unit, Some(tag)) => format!(
            "{path} => ::serde::Value::Object(::std::vec![
                (::std::string::String::from({tag:?}), ::serde::Value::String({name}))]),"
        ),
        (Shape::Tuple(arity), _) => {
            let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
            let values: Vec<String> = binds
                .iter()
                .map(|b| format!("::serde::Serialize::to_value({b})"))
                .collect();
            let content = if *arity == 1 {
                values[0].clone()
            } else {
                format!("::serde::Value::Array(::std::vec![{}])", values.join(", "))
            };
            format!("{path}({}) => {},", binds.join(", "), tagged(content))
        }
        (Shape::Struct(fields), tag) => {
            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            let tag_entry = tag.as_ref().map_or(String::new(), |tag| {
                format!(
                    "__m.push((::std::string::String::from({tag:?}), ::serde::Value::String({name})));"
                )
            });
            let object = format!(
                "{{ let mut __m = ::serde::Map::with_capacity({});
                    {tag_entry}
                    {}
                    ::serde::Value::Object(__m) }}",
                fields.len() + 1,
                push_fields(fields, |name| name.to_string())
            );
            let value = if tag.is_some() {
                object
            } else {
                tagged(object)
            };
            format!("{path} {{ {} }} => {value},", binds.join(", "))
        }
    }
}

/// An expression that reads `fields` out of the map `__m` and builds
/// `path { ... }`.
fn read_fields(path: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        let name = &f.name;
        slots.push_str(&format!("let mut __f{i} = ::std::option::Option::None;"));
        arms.push_str(&format!(
            "{name:?} => {{
                if __f{i}.is_some() {{
                    return ::std::result::Result::Err(::serde::__private::duplicate({name:?}));
                }}
                __f{i} = ::std::option::Option::Some(::serde::Deserialize::from_value(__v)?);
            }}"
        ));
        let fallback = match &f.default {
            FieldDefault::None => format!("::serde::Deserialize::missing({name:?})?"),
            FieldDefault::Trait => "::std::default::Default::default()".to_string(),
            FieldDefault::Path(p) => format!("{p}()"),
        };
        inits.push_str(&format!(
            "{name}: match __f{i} {{
                ::std::option::Option::Some(__x) => __x,
                ::std::option::Option::None => {fallback},
            }},"
        ));
    }
    format!(
        "{{ {slots}
            for (__k, __v) in __m {{
                match __k.as_str() {{ {arms} _ => {{}} }}
            }}
            {path} {{ {inits} }} }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "::serde::Deserialize");
    let name = &item.ident;
    let body = match (&item.body, &item.tag) {
        (Body::Struct(fields), _) => format!(
            "let __m = ::serde::__private::expect_object(__value, {name:?})?;
             ::std::result::Result::Ok({})",
            read_fields(name, fields)
        ),
        (Body::Enum(variants), Some(tag)) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let path = format!("{name}::{}", v.ident);
                    let value = match &v.shape {
                        Shape::Struct(fields) => read_fields(&path, fields),
                        _ => path,
                    };
                    format!("{:?} => ::std::result::Result::Ok({value}),", v.wire)
                })
                .collect();
            format!(
                "let (__name, __m) = ::serde::__private::take_tag(__value, {tag:?}, {name:?})?;
                 let _ = &__m;
                 match __name.as_str() {{
                     {arms}
                     __other => ::std::result::Result::Err(
                         ::serde::__private::unknown_variant(__other, {name:?})),
                 }}"
            )
        }
        (Body::Enum(variants), None) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let path = format!("{name}::{}", v.ident);
                    let wire = &v.wire;
                    let value = match &v.shape {
                        Shape::Unit => format!(
                            "{{ ::serde::__private::expect_unit(__content, {wire:?})?; {path} }}"
                        ),
                        Shape::Tuple(1) => format!(
                            "{path}(::serde::Deserialize::from_value(
                                ::serde::__private::expect_content(__content, {wire:?})?)?)"
                        ),
                        Shape::Tuple(arity) => {
                            let items: String = (0..*arity)
                                .map(|_| {
                                    "::serde::Deserialize::from_value(
                                        __items.next().expect(\"length checked\"))?,"
                                })
                                .collect();
                            format!(
                                "{{ let mut __items = ::serde::__private::expect_tuple(
                                        ::serde::__private::expect_content(__content, {wire:?})?,
                                        {arity}, {wire:?})?.into_iter();
                                    {path}({items}) }}"
                            )
                        }
                        Shape::Struct(fields) => format!(
                            "{{ let __m = ::serde::__private::expect_object(
                                    ::serde::__private::expect_content(__content, {wire:?})?,
                                    {wire:?})?;
                                {} }}",
                            read_fields(&path, fields)
                        ),
                    };
                    format!("{wire:?} => ::std::result::Result::Ok({value}),")
                })
                .collect();
            format!(
                "let (__name, __content) = ::serde::__private::take_variant(__value, {name:?})?;
                 match __name.as_str() {{
                     {arms}
                     __other => ::std::result::Result::Err(
                         ::serde::__private::unknown_variant(__other, {name:?})),
                 }}"
            )
        }
    };
    format!(
        "impl{generics} ::serde::Deserialize for {ty} {{
            fn from_value(__value: ::serde::Value)
                -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}
        }}"
    )
}
