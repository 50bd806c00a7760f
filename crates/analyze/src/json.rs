//! A minimal JSON value and parser — zero dependencies.
//!
//! The parser accepts any standard JSON and keeps object keys in
//! document order. Its readers are the obs-discipline rule (the
//! committed metrics golden) and the tests that check the benchmark
//! baselines and reports; the workspace writes its JSON with `format!`.

/// A JSON value. Integers and floats are kept apart, so a count reads
/// back as an `Int` and a measurement as a `Float`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset and description.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut p = Parser { bytes, at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing content at offset {}", p.at));
    }
    Ok(v)
}

struct Parser {
    bytes: Vec<char>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.at)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        for c in lit.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.at += 1,
                Some('}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.at += 1,
                Some(']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some('"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d =
                                    self.peek().and_then(|c| c.to_digit(16)).ok_or_else(|| {
                                        format!("bad \\u escape at offset {}", self.at)
                                    })?;
                                code = code * 16 + d;
                                self.at += 1;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some('-') {
            self.at += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => self.at += 1,
                '.' | 'e' | 'E' | '+' | '-' => {
                    float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text: String = self.bytes[start..self.at].iter().collect();
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pretty_nested_documents_in_key_order() {
        let text = "{\n  \"schema\": \"flowtune.bench.v1\",\n  \"rows\": [\n    {\n      \"file\": \"a/b.rs\",\n      \"line\": 7\n    }\n  ],\n  \"empty\": [],\n  \"none\": {}\n}\n";
        let want = Json::Obj(vec![
            ("schema".into(), Json::Str("flowtune.bench.v1".into())),
            (
                "rows".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("file".into(), Json::Str("a/b.rs".into())),
                    ("line".into(), Json::Int(7)),
                ])]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(parse(text).expect("parses"), want);
    }

    #[test]
    fn parses_compact_and_nested_input() {
        let v = parse(r#"{"a":[1,2.5,true,null],"b":{"c":"d\ne"}}"#).expect("parses");
        assert_eq!(
            v,
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![
                        Json::Int(1),
                        Json::Float(2.5),
                        Json::Bool(true),
                        Json::Null
                    ])
                ),
                (
                    "b".into(),
                    Json::Obj(vec![("c".into(), Json::Str("d\ne".into()))])
                ),
            ])
        );
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z":1,"a":2}"#).expect("parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn parses_every_escape() {
        let v = parse(
            r#""quote \" slash \\ solidus \/ nl \n tab \t cr \r bs \b ff \f ctrl \u0001 e \u00e9""#,
        )
        .expect("parses");
        assert_eq!(
            v,
            Json::Str(
                "quote \" slash \\ solidus / nl \n tab \t cr \r bs \u{8} ff \u{c} ctrl \u{1} e \u{e9}"
                    .into()
            )
        );
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u00g1""#).is_err());
        assert!(parse(r#""open"#).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }
}
