//! Minimal HTTP request/response types — just enough surface for the
//! Mastodon-compatible APIs the paper crawled.

use bytes::Bytes;
use fediscope_core::failure::StatusCode;
use serde::Serialize;
use std::collections::BTreeMap;

/// HTTP method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET — every crawler request.
    Get,
    /// POST — federation inbox deliveries.
    Post,
}

/// An HTTP request addressed to an instance.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Method.
    pub method: Method,
    /// Path without query string, e.g. `/api/v1/instance/peers`.
    pub path: String,
    /// Parsed query parameters.
    pub query: BTreeMap<String, String>,
    /// Request body (inbox deliveries carry JSON activities).
    pub body: Bytes,
}

impl HttpRequest {
    /// A GET request for `path_and_query` (query string parsed off).
    pub fn get(path_and_query: &str) -> Self {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (path_and_query.to_string(), BTreeMap::new()),
        };
        HttpRequest {
            method: Method::Get,
            path,
            query,
            body: Bytes::new(),
        }
    }

    /// A POST request with a JSON body.
    pub fn post_json<T: Serialize>(path: &str, body: &T) -> Self {
        Self::post_bytes(
            path,
            Bytes::from(serde_json::to_vec(body).expect("serializable body")),
        )
    }

    /// A POST request with a pre-serialized body. `Bytes` clones share
    /// the buffer, so a wide delivery fan-out serializes the activity
    /// once and hands every target a refcount, not a copy.
    pub fn post_bytes(path: &str, body: Bytes) -> Self {
        HttpRequest {
            method: Method::Post,
            path: path.to_string(),
            query: BTreeMap::new(),
            body,
        }
    }

    /// Query parameter accessor.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Query parameter parsed to a number.
    pub fn param_u64(&self, key: &str) -> Option<u64> {
        self.param(key).and_then(|v| v.parse().ok())
    }
}

fn parse_query(q: &str) -> BTreeMap<String, String> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.to_string()))
        })
        .collect()
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: StatusCode,
    /// Response body (JSON for API endpoints).
    pub body: Bytes,
}

impl HttpResponse {
    /// A 200 response with a JSON body.
    pub fn json<T: Serialize>(value: &T) -> Self {
        HttpResponse {
            status: StatusCode::OK,
            body: Bytes::from(serde_json::to_vec(value).expect("serializable response")),
        }
    }

    /// An empty response with the given status.
    pub fn status(status: StatusCode) -> Self {
        HttpResponse {
            status,
            body: Bytes::new(),
        }
    }

    /// Parses the body as JSON.
    pub fn json_body(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Whether the response is a success.
    pub fn is_success(&self) -> bool {
        self.status.is_success()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_parses_query() {
        let req = HttpRequest::get("/api/v1/timelines/public?local=true&limit=40&max_id=99");
        assert_eq!(req.path, "/api/v1/timelines/public");
        assert_eq!(req.param("local"), Some("true"));
        assert_eq!(req.param_u64("limit"), Some(40));
        assert_eq!(req.param_u64("max_id"), Some(99));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn get_without_query() {
        let req = HttpRequest::get("/api/v1/instance");
        assert_eq!(req.path, "/api/v1/instance");
        assert!(req.query.is_empty());
    }

    #[test]
    fn malformed_query_pairs_are_skipped() {
        let req = HttpRequest::get("/x?ok=1&&novalue&k=v");
        assert_eq!(req.param("ok"), Some("1"));
        assert_eq!(req.param("k"), Some("v"));
        assert_eq!(req.query.len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let resp = HttpResponse::json(&serde_json::json!({"users": 42}));
        assert!(resp.is_success());
        assert_eq!(resp.json_body().unwrap()["users"], 42);
    }

    #[test]
    fn status_constants() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::ACCEPTED.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
        assert_eq!(StatusCode::BAD_GATEWAY.to_string(), "502");
    }

    #[test]
    fn post_json_carries_body() {
        let req = HttpRequest::post_json("/inbox", &serde_json::json!({"type": "Create"}));
        assert_eq!(req.method, Method::Post);
        let v: serde_json::Value = serde_json::from_slice(&req.body).unwrap();
        assert_eq!(v["type"], "Create");
    }
}
