//! Content-shape policies: `KeywordPolicy`, `VocabularyPolicy`,
//! `NormalizeMarkup`, `NoEmptyPolicy`, `NoPlaceholderTextPolicy`,
//! `RejectNonPublic`.

use crate::catalog::PolicyKind;
use crate::model::{Activity, ActivityKind, Visibility};
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::{PolicyVerdict, RejectReason};
use crate::mrf::{MrfPolicy, RefVerdict};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// What a [`KeywordRule`] does when it matches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeywordAction {
    /// Reject the post.
    Reject,
    /// De-list it from the federated timeline (public → unlisted).
    FederatedTimelineRemoval,
    /// Replace every occurrence of the pattern with the given string.
    Replace(String),
}

/// A single pattern → action rule for [`KeywordPolicy`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeywordRule {
    /// Case-insensitive substring to match in content or subject.
    pub pattern: String,
    /// What to do on a match.
    pub action: KeywordAction,
}

impl KeywordRule {
    /// Builds a rule.
    pub fn new(pattern: impl Into<String>, action: KeywordAction) -> Self {
        KeywordRule {
            pattern: pattern.into(),
            action,
        }
    }

    fn matches(&self, text: &str) -> bool {
        text.to_ascii_lowercase()
            .contains(&self.pattern.to_ascii_lowercase())
    }
}

/// `KeywordPolicy` — "A list of patterns which result in message being
/// reject/unlisted/replaced" (Table 3; 42 instances, 22,428 users).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeywordPolicy {
    /// Rules applied in order; the first `Reject` match stops processing.
    pub rules: Vec<KeywordRule>,
}

impl KeywordPolicy {
    /// Builds a policy from rules.
    pub fn new(rules: Vec<KeywordRule>) -> Self {
        KeywordPolicy { rules }
    }
}

impl MrfPolicy for KeywordPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Keyword
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, mut activity: Activity) -> PolicyVerdict {
        let Some(post) = activity.note_mut() else {
            return PolicyVerdict::Pass(activity);
        };
        for rule in &self.rules {
            let subject_hit = post
                .subject
                .as_deref()
                .map(|s| rule.matches(s))
                .unwrap_or(false);
            if !rule.matches(&post.content) && !subject_hit {
                continue;
            }
            match &rule.action {
                KeywordAction::Reject => {
                    return PolicyVerdict::Reject(RejectReason::new(
                        PolicyKind::Keyword,
                        "keyword",
                        format!("matched pattern {:?}", rule.pattern),
                    ));
                }
                KeywordAction::FederatedTimelineRemoval => {
                    if post.visibility == Visibility::Public {
                        post.visibility = Visibility::Unlisted;
                    }
                }
                KeywordAction::Replace(with) => {
                    post.content = replace_ci(&post.content, &rule.pattern, with).into();
                    if let Some(s) = &post.subject {
                        post.subject = Some(replace_ci(s, &rule.pattern, with));
                    }
                }
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, _: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        let Some(post) = activity.note() else {
            return RefVerdict::Pass;
        };
        for rule in &self.rules {
            let subject_hit = post
                .subject
                .as_deref()
                .map(|s| rule.matches(s))
                .unwrap_or(false);
            if !rule.matches(&post.content) && !subject_hit {
                continue;
            }
            match &rule.action {
                KeywordAction::Reject => return RefVerdict::Reject(PolicyKind::Keyword),
                KeywordAction::FederatedTimelineRemoval => {
                    if post.visibility == Visibility::Public {
                        return RefVerdict::NeedsClone;
                    }
                }
                KeywordAction::Replace(_) => return RefVerdict::NeedsClone,
            }
        }
        RefVerdict::Pass
    }
}

/// Case-insensitive substring replacement.
fn replace_ci(haystack: &str, pattern: &str, with: &str) -> String {
    if pattern.is_empty() {
        return haystack.to_string();
    }
    let lower_h = haystack.to_ascii_lowercase();
    let lower_p = pattern.to_ascii_lowercase();
    let mut out = String::with_capacity(haystack.len());
    let mut i = 0;
    while let Some(pos) = lower_h[i..].find(&lower_p) {
        let at = i + pos;
        out.push_str(&haystack[i..at]);
        out.push_str(with);
        i = at + pattern.len();
    }
    out.push_str(&haystack[i..]);
    out
}

/// `VocabularyPolicy` — "Restricts activities to a configured set of
/// vocabulary" (Table 3; 5 instances). `accept` non-empty means only those
/// activity types pass; `reject` always drops its types.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VocabularyPolicy {
    /// If non-empty, only these activity kinds are accepted.
    pub accept: Vec<ActivityKind>,
    /// These activity kinds are always rejected.
    pub reject: Vec<ActivityKind>,
}

impl MrfPolicy for VocabularyPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Vocabulary
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, activity: Activity) -> PolicyVerdict {
        if self.reject.contains(&activity.kind) {
            return PolicyVerdict::Reject(RejectReason::new(
                PolicyKind::Vocabulary,
                "vocabulary_rejected",
                format!("{} is on the reject vocabulary", activity.kind.as_str()),
            ));
        }
        if !self.accept.is_empty() && !self.accept.contains(&activity.kind) {
            return PolicyVerdict::Reject(RejectReason::new(
                PolicyKind::Vocabulary,
                "vocabulary_not_accepted",
                format!("{} is not on the accept vocabulary", activity.kind.as_str()),
            ));
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, _: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if self.reject.contains(&activity.kind)
            || (!self.accept.is_empty() && !self.accept.contains(&activity.kind))
        {
            RefVerdict::Reject(PolicyKind::Vocabulary)
        } else {
            RefVerdict::Pass
        }
    }
}

/// `NormalizeMarkup` — scrubs HTML markup down to plain text (Figure 1).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NormalizeMarkupPolicy;

/// Removes `<...>` tag runs from `s`. Unterminated tags are dropped to the
/// end of the string, matching lenient HTML scrubbers.
fn strip_tags(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_tag = false;
    for c in s.chars() {
        match (in_tag, c) {
            (false, '<') => in_tag = true,
            (false, ch) => out.push(ch),
            (true, '>') => in_tag = false,
            (true, _) => {}
        }
    }
    out
}

impl MrfPolicy for NormalizeMarkupPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NormalizeMarkup
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, mut activity: Activity) -> PolicyVerdict {
        if let Some(post) = activity.note_mut() {
            if post.content.contains('<') {
                post.content = strip_tags(&post.content).into();
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, _: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        match activity.note() {
            Some(post) if post.content.contains('<') => RefVerdict::NeedsClone,
            _ => RefVerdict::Pass,
        }
    }
}

/// `NoEmptyPolicy` — denies *local* users posting empty notes (no text, no
/// media).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NoEmptyPolicy;

impl MrfPolicy for NoEmptyPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoEmpty
    }

    fn filter(&self, ctx: &PolicyContext<'_>, activity: Activity) -> PolicyVerdict {
        if ctx.is_local(activity.origin()) {
            if let Some(post) = activity.note() {
                if post.content.trim().is_empty() && !post.has_media() {
                    return PolicyVerdict::Reject(RejectReason::new(
                        PolicyKind::NoEmpty,
                        "empty_post",
                        "local post with no text and no attachments",
                    ));
                }
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, ctx: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if ctx.is_local(activity.origin()) {
            if let Some(post) = activity.note() {
                if post.content.trim().is_empty() && !post.has_media() {
                    return RefVerdict::Reject(PolicyKind::NoEmpty);
                }
            }
        }
        RefVerdict::Pass
    }
}

/// `NoPlaceholderTextPolicy` — strips placeholder bodies (`"."`) from posts
/// that carry media.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NoPlaceholderTextPolicy;

impl MrfPolicy for NoPlaceholderTextPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoPlaceholderText
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, mut activity: Activity) -> PolicyVerdict {
        if let Some(post) = activity.note_mut() {
            let trimmed = post.content.trim();
            if post.has_media() && (trimmed == "." || trimmed == "..") {
                post.content = "".into();
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, _: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if let Some(post) = activity.note() {
            let trimmed = post.content.trim();
            if post.has_media() && (trimmed == "." || trimmed == "..") {
                return RefVerdict::NeedsClone;
            }
        }
        RefVerdict::Pass
    }
}

/// `RejectNonPublic` — "Whether to allow followers-only/direct posts"
/// (Table 3; 3 instances).
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct RejectNonPublicPolicy {
    /// Allow followers-only posts through?
    pub allow_followers_only: bool,
    /// Allow direct messages through?
    pub allow_direct: bool,
}

impl MrfPolicy for RejectNonPublicPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RejectNonPublic
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, activity: Activity) -> PolicyVerdict {
        if let Some(post) = activity.note() {
            let verboten = match post.visibility {
                Visibility::FollowersOnly => !self.allow_followers_only,
                Visibility::Direct => !self.allow_direct,
                Visibility::Public | Visibility::Unlisted => false,
            };
            if verboten {
                return PolicyVerdict::Reject(RejectReason::new(
                    PolicyKind::RejectNonPublic,
                    "non_public",
                    format!("{:?} posts are not allowed", post.visibility),
                ));
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, _: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if let Some(post) = activity.note() {
            let verboten = match post.visibility {
                Visibility::FollowersOnly => !self.allow_followers_only,
                Visibility::Direct => !self.allow_direct,
                Visibility::Public | Visibility::Unlisted => false,
            };
            if verboten {
                return RefVerdict::Reject(PolicyKind::RejectNonPublic);
            }
        }
        RefVerdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
    use crate::model::{MediaAttachment, MediaKind, Post};
    use crate::mrf::context::NullActorDirectory;
    use crate::time::SimTime;

    fn note(content: &str, domain: &str) -> Activity {
        let author = UserRef::new(UserId(1), Domain::new(domain));
        Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(0), content),
        )
    }

    fn run(p: &dyn MrfPolicy, act: Activity) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        p.filter(&ctx, act)
    }

    #[test]
    fn keyword_reject() {
        let p = KeywordPolicy::new(vec![KeywordRule::new("forbidden", KeywordAction::Reject)]);
        assert!(!run(&p, note("this is FORBIDDEN text", "a.example")).is_pass());
        assert!(run(&p, note("this is fine", "a.example")).is_pass());
    }

    #[test]
    fn keyword_matches_subject_too() {
        let p = KeywordPolicy::new(vec![KeywordRule::new("spoiler", KeywordAction::Reject)]);
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "clean body");
        post.subject = Some("SPOILER alert".into());
        assert!(!run(&p, Activity::create(ActivityId(1), post)).is_pass());
    }

    #[test]
    fn keyword_delist() {
        let p = KeywordPolicy::new(vec![KeywordRule::new(
            "drama",
            KeywordAction::FederatedTimelineRemoval,
        )]);
        let v = run(&p, note("fediverse drama again", "a.example"));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
    }

    #[test]
    fn keyword_replace_case_insensitive() {
        let p = KeywordPolicy::new(vec![KeywordRule::new(
            "Elixir",
            KeywordAction::Replace("Rust".into()),
        )]);
        let v = run(&p, note("elixir is great, ELIXIR forever", "a.example"));
        assert_eq!(
            &*v.expect_pass().note().unwrap().content,
            "Rust is great, Rust forever"
        );
    }

    #[test]
    fn replace_ci_edge_cases() {
        assert_eq!(
            replace_ci("abc", "", "x"),
            "abc",
            "empty pattern is a no-op"
        );
        assert_eq!(replace_ci("aaa", "a", "b"), "bbb");
        assert_eq!(replace_ci("xyz", "q", "r"), "xyz");
    }

    #[test]
    fn vocabulary_accept_list() {
        let p = VocabularyPolicy {
            accept: vec![ActivityKind::Create],
            reject: vec![],
        };
        assert!(run(&p, note("x", "a.example")).is_pass());
        let follow = Activity::follow(
            ActivityId(2),
            UserRef::new(UserId(1), Domain::new("a.example")),
            UserRef::new(UserId(2), Domain::new("home.example")),
            SimTime(0),
        );
        assert_eq!(
            run(&p, follow).expect_reject().code,
            "vocabulary_not_accepted"
        );
    }

    #[test]
    fn vocabulary_reject_list_wins() {
        let p = VocabularyPolicy {
            accept: vec![ActivityKind::Create],
            reject: vec![ActivityKind::Create],
        };
        assert_eq!(
            run(&p, note("x", "a.example")).expect_reject().code,
            "vocabulary_rejected"
        );
    }

    #[test]
    fn normalize_markup_strips_tags() {
        let v = run(
            &NormalizeMarkupPolicy,
            note("<p>hello <b>world</b></p>", "a.example"),
        );
        assert_eq!(&*v.expect_pass().note().unwrap().content, "hello world");
    }

    #[test]
    fn normalize_markup_is_idempotent() {
        let once = strip_tags("<p>hi</p>");
        assert_eq!(strip_tags(&once), once);
    }

    #[test]
    fn no_empty_rejects_local_empty_posts_only() {
        // Local empty: rejected.
        assert!(!run(&NoEmptyPolicy, note("   ", "home.example")).is_pass());
        // Remote empty: passes (policy governs local users).
        assert!(run(&NoEmptyPolicy, note("", "remote.example")).is_pass());
        // Local with media: passes.
        let author = UserRef::new(UserId(1), Domain::new("home.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "");
        post.media.push(MediaAttachment {
            host: Domain::new("home.example"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        assert!(run(&NoEmptyPolicy, Activity::create(ActivityId(1), post)).is_pass());
    }

    #[test]
    fn placeholder_text_stripped_when_media_present() {
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), " . ");
        post.media.push(MediaAttachment {
            host: Domain::new("a.example"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        let v = run(
            &NoPlaceholderTextPolicy,
            Activity::create(ActivityId(1), post),
        );
        assert_eq!(&*v.expect_pass().note().unwrap().content, "");
        // Without media the dot is kept.
        let v = run(&NoPlaceholderTextPolicy, note(".", "a.example"));
        assert_eq!(&*v.expect_pass().note().unwrap().content, ".");
    }

    #[test]
    fn reject_non_public_blocks_private_scopes() {
        let p = RejectNonPublicPolicy::default();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        for (vis, expect_pass) in [
            (Visibility::Public, true),
            (Visibility::Unlisted, true),
            (Visibility::FollowersOnly, false),
            (Visibility::Direct, false),
        ] {
            let mut post = Post::stub(PostId(1), author.clone(), SimTime(0), "x");
            post.visibility = vis;
            let v = run(&p, Activity::create(ActivityId(1), post));
            assert_eq!(v.is_pass(), expect_pass, "visibility {vis:?}");
        }
    }

    #[test]
    fn reject_non_public_configurable() {
        let p = RejectNonPublicPolicy {
            allow_followers_only: true,
            allow_direct: false,
        };
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "x");
        post.visibility = Visibility::FollowersOnly;
        assert!(run(&p, Activity::create(ActivityId(1), post)).is_pass());
    }
}
