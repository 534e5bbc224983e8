//! Wire-codec negotiation: which body representation a request carries and
//! which one the client will accept back.
//!
//! The service core ([`mani_service::Service`]) works on typed values; this
//! module is the seam where HTTP representation metadata (`Content-Type`,
//! `Accept`, the query string) is resolved into a concrete codec before the
//! transport decodes bytes. Two upload representations are supported:
//!
//! * `application/json` (the default when no `Content-Type` is sent) — the
//!   documented JSON API.
//! * `application/vnd.mani.columnar` — the compact binary columnar dataset
//!   encoding defined in [`mani_service::columnar`]. A columnar `POST
//!   /v1/consensus` body is the dataset itself; solve parameters
//!   (`methods`, `delta`, `budget`, `wait`, `stream`) ride the query string,
//!   which [`mani_service::query_fields`] reads into the fields a JSON body
//!   carries, so both codecs read every option alike.
//!
//! Anything else is refused with `415 Unsupported Media Type` and a
//! structured JSON envelope listing the supported representations. Responses
//! are always JSON (or NDJSON for streamed batches); a request whose `Accept`
//! header excludes both is refused with `406 Not Acceptable` rather than
//! silently answered with a representation the client said it cannot read.

use mani_service::{error_body, obj, render, s, with_entry, ApiError, COLUMNAR_CONTENT_TYPE};
use serde::Value;

use crate::http::{HttpRequest, HttpResponse};

/// The JSON media type (the default body representation).
pub const JSON_CONTENT_TYPE: &str = "application/json";

/// The NDJSON media type used by streamed consensus responses.
pub const NDJSON_CONTENT_TYPE: &str = "application/x-ndjson";

/// Body representation of one POST request, resolved from `Content-Type`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyCodec {
    /// `application/json` (or no `Content-Type` at all).
    Json,
    /// `application/vnd.mani.columnar` — the binary columnar dataset
    /// encoding.
    Columnar,
}

/// The media type left of any `;` parameters, lower-cased and trimmed
/// (`Application/JSON; charset=utf-8` → `application/json`).
fn media_type(raw: &str) -> String {
    raw.split(';')
        .next()
        .unwrap_or("")
        .trim()
        .to_ascii_lowercase()
}

/// Resolves the body representation of a POST request from its
/// `Content-Type`. Unsupported types are refused with a fully rendered `415`
/// response enumerating the representations this endpoint can decode.
pub fn negotiate_body(request: &HttpRequest) -> Result<BodyCodec, HttpResponse> {
    let Some(raw) = request.header("content-type") else {
        return Ok(BodyCodec::Json);
    };
    match media_type(raw).as_str() {
        "" | JSON_CONTENT_TYPE => Ok(BodyCodec::Json),
        COLUMNAR_CONTENT_TYPE => Ok(BodyCodec::Columnar),
        other => Err(HttpResponse::json(
            415,
            render(&with_entry(
                obj(vec![(
                    "error",
                    s(format!("unsupported media type `{other}`")),
                )]),
                "supported",
                Value::Array(vec![s(JSON_CONTENT_TYPE), s(COLUMNAR_CONTENT_TYPE)]),
            )),
        )),
    }
}

/// Checks the request's `Accept` header against the JSON (and, for streamed
/// batches, NDJSON) responses this API produces. Absent or wildcard accepts
/// pass; a header that excludes every producible representation is refused
/// with a fully rendered `406` response.
pub fn check_accept(request: &HttpRequest) -> Result<(), HttpResponse> {
    let Some(raw) = request.header("accept") else {
        return Ok(());
    };
    let acceptable = raw.split(',').map(media_type).any(|mt| {
        matches!(
            mt.as_str(),
            "" | "*/*" | "application/*" | JSON_CONTENT_TYPE | NDJSON_CONTENT_TYPE
        )
    });
    if acceptable {
        Ok(())
    } else {
        Err(HttpResponse::json(
            406,
            render(&with_entry(
                obj(vec![(
                    "error",
                    s(format!("cannot produce any representation in `{raw}`")),
                )]),
                "produces",
                Value::Array(vec![s(JSON_CONTENT_TYPE), s(NDJSON_CONTENT_TYPE)]),
            )),
        ))
    }
}

/// Splits a raw query string into `(key, value)` pairs. No percent-decoding:
/// every parameter this API defines (method names, numbers, booleans) is
/// already URL-safe, and commas are legal raw in query strings.
pub fn query_params(query: Option<&str>) -> Vec<(&str, &str)> {
    query
        .unwrap_or("")
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .collect()
}

/// Renders an [`ApiError`] as the standard JSON error envelope on the status
/// code its kind maps to.
pub fn api_error_response(error: &ApiError) -> HttpResponse {
    HttpResponse::json(
        crate::handlers::api_error_status(error),
        error_body(&error.message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::post;

    fn with_content_type(mut request: HttpRequest, value: &str) -> HttpRequest {
        request.headers.retain(|(name, _)| name != "content-type");
        request
            .headers
            .push(("content-type".to_string(), value.to_string()));
        request
    }

    #[test]
    fn json_is_the_default_and_parameters_are_ignored() {
        let mut bare = post("/v1/consensus", "{}");
        bare.headers.clear();
        assert_eq!(negotiate_body(&bare).unwrap(), BodyCodec::Json);
        let charset = with_content_type(
            post("/v1/consensus", "{}"),
            "Application/JSON; charset=utf-8",
        );
        assert_eq!(negotiate_body(&charset).unwrap(), BodyCodec::Json);
        let columnar = with_content_type(post("/v1/consensus", ""), COLUMNAR_CONTENT_TYPE);
        assert_eq!(negotiate_body(&columnar).unwrap(), BodyCodec::Columnar);
    }

    #[test]
    fn unsupported_media_types_are_refused_with_an_envelope() {
        let xml = with_content_type(post("/v1/consensus", "<x/>"), "text/xml");
        let response = negotiate_body(&xml).unwrap_err();
        assert_eq!(response.status, 415);
        assert!(
            response.body.contains("unsupported media type"),
            "{}",
            response.body
        );
        assert!(
            response.body.contains(COLUMNAR_CONTENT_TYPE),
            "{}",
            response.body
        );
        assert!(
            response.body.contains(JSON_CONTENT_TYPE),
            "{}",
            response.body
        );
    }

    #[test]
    fn accept_negotiation_refuses_json_haters_only() {
        for ok in [
            None,
            Some("*/*"),
            Some("application/*"),
            Some("application/json"),
            Some("text/html, application/json;q=0.8"),
            Some("application/x-ndjson"),
        ] {
            let mut request = post("/v1/consensus", "{}");
            if let Some(accept) = ok {
                request
                    .headers
                    .push(("accept".to_string(), accept.to_string()));
            }
            assert!(check_accept(&request).is_ok(), "{ok:?}");
        }
        let mut request = post("/v1/consensus", "{}");
        request
            .headers
            .push(("accept".to_string(), "text/html".to_string()));
        let response = check_accept(&request).unwrap_err();
        assert_eq!(response.status, 406);
        assert!(response.body.contains("produces"), "{}", response.body);
    }

    #[test]
    fn query_strings_parse_into_solve_params() {
        let pairs = query_params(Some("methods=Fair-Borda,Fair-Copeland&delta=0.2&wait=true"));
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, "methods");
        assert_eq!(pairs[0].1, "Fair-Borda,Fair-Copeland");
        assert!(query_params(None).is_empty());
        assert_eq!(query_params(Some("wait")), vec![("wait", "")]);
    }
}
