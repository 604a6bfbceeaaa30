#include "taint.h"

#include <algorithm>
#include <set>

namespace pclint {

namespace {

// Built-in secret sources: identifiers that name private-key or share
// material wherever they appear (the PC_SECRET marker extends this list
// in-tree; the built-ins cover the core key types and conventional names).
const std::set<std::string>& builtin_secret_idents() {
  static const std::set<std::string> s = {
      "p_",        "q_",       "vp_",     "vq_",         "lambda_",
      "mu_",       "gvp_",     "q_sq_inv_p_", "dlog_table_",
      "sk",        "sk_",      "secret",  "secret_",     "secret_key",
      "priv_",     "private_key_",
  };
  return s;
}

// Calls whose return value is secret-derived (decryption surfaces).
const std::set<std::string>& builtin_tainting_calls() {
  static const std::set<std::string> s = {
      "decrypt", "decrypt_raw", "decrypt_crt", "decrypt_vector",
      "decrypt_packed_vector",
  };
  return s;
}

// Calls that launder taint by construction: encrypting a secret yields a
// public ciphertext, and pc_declassify is the explicit reviewed escape.
const std::set<std::string>& laundering_calls() {
  static const std::set<std::string> s = {
      "pc_declassify",
      "encrypt",
      "encrypt_with_randomness",
      "encrypt_vector",
      "rerandomize",
      // Precompute-service / packed lanes (DESIGN.md §15): stream and
      // packed encryption wrap encrypt_with_power, whose output is a full
      // probabilistic ciphertext; the stream draw itself never touches
      // plaintext secrets.
      "encrypt_with_power",
      "encrypt_packed_vector",
      "secure_sum_encrypt_stream",
  };
  return s;
}

// Variable-time BigInt entry points (sinks when fed a tainted argument).
// `pow` and `pow_mod` both run Cios::pow: its multiply count follows the
// exponent's length, but each product's final subtraction and each
// window's table index still depend on the data, so neither spelling is
// constant-time.
const std::set<std::string>& variable_time_calls() {
  static const std::set<std::string> s = {
      "gcd", "lcm", "extended_gcd", "invert_mod", "div_mod", "to_string",
      "pow", "pow_mod",
  };
  return s;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  static const std::set<std::string> ops = {"=",  "+=", "-=", "*=", "/=",
                                           "%=", "&=", "|=", "^=", "<<=",
                                           ">>="};
  return ops.count(t.text) != 0;
}

// Per-function analysis state shared between the propagation and sink
// passes.
struct BodyContext {
  const std::vector<Token>* toks = nullptr;
  std::size_t begin = 0;  // token index of '{'
  std::size_t end = 0;    // token index of matching '}'
  std::set<std::string> tainted;
  std::vector<char> clean;  // per-token: inside a laundering call
};

// Marks tokens inside `launder(...)` spans (including nested content).
void compute_clean_spans(BodyContext& ctx) {
  const std::vector<Token>& toks = *ctx.toks;
  ctx.clean.assign(toks.size(), 0);
  for (std::size_t i = ctx.begin; i < ctx.end; ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        laundering_calls().count(toks[i].text) == 0) {
      continue;
    }
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_group(toks, i + 1);
    if (close >= toks.size()) continue;
    for (std::size_t k = i; k <= close; ++k) ctx.clean[k] = 1;
  }
}

// True when [b, e) contains a tainted identifier or a tainting call,
// outside laundered spans.  `extra_tainting` carries intra-file function
// summaries.
bool span_is_tainted(const BodyContext& ctx, std::size_t b, std::size_t e,
                     const std::set<std::string>& extra_tainting) {
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = b; i < e && i < toks.size(); ++i) {
    if (ctx.clean[i] != 0) continue;
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool is_call = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    if (is_call) {
      if (builtin_tainting_calls().count(t) != 0 ||
          extra_tainting.count(t) != 0) {
        return true;
      }
      // `sk.is_zero(c)` — the DGK zero-test takes an argument; the
      // argument-free BigInt::is_zero() is a public size query.
      if (t == "is_zero" && i + 2 < toks.size() &&
          !is_punct(toks[i + 2], ")")) {
        return true;
      }
      continue;  // a call's *name* is not a variable read
    }
    if (ctx.tainted.count(t) != 0) return true;
  }
  return false;
}

// Finds the end of the statement starting inside a body: the next ';' at
// the current group depth (stops at unmatched '}' too).
std::size_t statement_end(const std::vector<Token>& toks, std::size_t from,
                          std::size_t limit) {
  std::size_t depth = 0;
  for (std::size_t i = from; i < limit; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") {
      if (depth == 0) return i;
      --depth;
    } else if (t == ";" && depth == 0) {
      return i;
    }
  }
  return limit;
}

// Walks left from an assignment operator to the assigned variable: skips
// balanced ']'/')' groups, returns the first identifier.
std::string assign_target(const std::vector<Token>& toks, std::size_t op,
                          std::size_t floor) {
  std::size_t i = op;
  while (i > floor) {
    --i;
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct && (t.text == "]" || t.text == ")")) {
      // Skip the balanced group backwards.
      const std::string open = t.text == "]" ? "[" : "(";
      std::size_t depth = 1;
      while (i > floor && depth > 0) {
        --i;
        if (toks[i].kind != TokKind::kPunct) continue;
        if (toks[i].text == t.text) ++depth;
        else if (toks[i].text == open) --depth;
      }
      continue;
    }
    if (t.kind == TokKind::kIdent) return t.text;
    if (t.kind == TokKind::kPunct &&
        (t.text == "." || t.text == "->" || t.text == "::" ||
         t.text == "*")) {
      continue;  // member chains / dereference: keep walking to the base
    }
    break;
  }
  return "";
}

// One propagation pass over the body; returns true when the taint set grew.
bool propagate_once(BodyContext& ctx,
                    const std::set<std::string>& extra_tainting) {
  const std::vector<Token>& toks = *ctx.toks;
  bool grew = false;
  const auto taint = [&](const std::string& name) {
    if (!name.empty() && ctx.tainted.insert(name).second) grew = true;
  };
  for (std::size_t i = ctx.begin + 1; i < ctx.end; ++i) {
    const Token& tk = toks[i];
    // Range-for binding: `for ( ... ident : expr )`.
    if (tk.kind == TokKind::kIdent && tk.text == "for" && i + 1 < ctx.end &&
        is_punct(toks[i + 1], "(")) {
      const std::size_t close = match_group(toks, i + 1);
      if (close < ctx.end) {
        for (std::size_t k = i + 2; k < close; ++k) {
          if (is_punct(toks[k], ":") && k > i + 2 &&
              toks[k - 1].kind == TokKind::kIdent) {
            if (span_is_tainted(ctx, k + 1, close, extra_tainting)) {
              taint(toks[k - 1].text);
            }
            break;
          }
          if (is_punct(toks[k], ";")) break;  // classic for, not range-for
        }
      }
    }
    if (!is_assign_op(tk)) continue;
    // Exclude comparison contexts the lexer already split ("==" etc. are
    // separate tokens, so a bare "=" here really is an assignment), but
    // skip default arguments inside lambda parameter lists rarely seen.
    const std::size_t stmt_end = statement_end(toks, i + 1, ctx.end);
    const std::string target = assign_target(toks, i, ctx.begin);
    if (target.empty()) continue;
    if (span_is_tainted(ctx, i + 1, stmt_end, extra_tainting)) {
      taint(target);
    }
  }
  return grew;
}

// True when any `return <expr>;` in the body is tainted.
bool returns_tainted(const BodyContext& ctx,
                     const std::set<std::string>& extra_tainting) {
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = ctx.begin + 1; i < ctx.end; ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "return") continue;
    const std::size_t stmt_end = statement_end(toks, i + 1, ctx.end);
    if (span_is_tainted(ctx, i + 1, stmt_end, extra_tainting)) return true;
  }
  return false;
}

void scan_sinks(const std::string& rel, const std::string& fn_name,
                const BodyContext& ctx,
                const std::set<std::string>& extra_tainting,
                std::vector<Finding>& out) {
  const std::vector<Token>& toks = *ctx.toks;
  std::set<std::pair<std::size_t, std::string>> reported;
  const auto report = [&](std::size_t line, const std::string& what) {
    if (!reported.insert({line, what}).second) return;
    out.push_back({rel, line, "PC008",
                   what + " in " + fn_name +
                       " — make it constant-time or wrap the reviewed "
                       "release in pc_declassify(...) (src/core/secrecy.h)",
                   false});
  };

  for (std::size_t i = ctx.begin + 1; i < ctx.end; ++i) {
    const Token& tk = toks[i];
    if (ctx.clean[i] != 0) continue;

    // Branch conditions: if / while / switch / for-condition.
    if (tk.kind == TokKind::kIdent &&
        (tk.text == "if" || tk.text == "while" || tk.text == "switch" ||
         tk.text == "for")) {
      if (i + 1 >= ctx.end || !is_punct(toks[i + 1], "(")) continue;
      const std::size_t close = match_group(toks, i + 1);
      if (close >= ctx.end) continue;
      std::size_t b = i + 2;
      std::size_t e = close;
      if (tk.text == "for") {
        // Classic for: only the condition clause; range-for: the range is
        // handled by propagation, its *use* sites fire on their own.
        std::size_t first_semi = close, second_semi = close;
        std::size_t depth = 0;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (toks[k].kind != TokKind::kPunct) continue;
          if (toks[k].text == "(" || toks[k].text == "[") ++depth;
          else if (toks[k].text == ")" || toks[k].text == "]") --depth;
          else if (toks[k].text == ";" && depth == 0) {
            if (first_semi == close) first_semi = k;
            else { second_semi = k; break; }
          }
        }
        if (first_semi == close) continue;  // range-for
        b = first_semi + 1;
        e = second_semi;
      }
      if (span_is_tainted(ctx, b, e, extra_tainting)) {
        report(tk.line, std::string("secret-dependent ") +
                            (tk.text == "for" ? "loop bound"
                             : tk.text == "switch" ? "switch selector"
                                                   : "branch condition"));
      }
      continue;
    }

    if (tk.kind != TokKind::kPunct) continue;

    // Ternary: tainted tokens between the statement start and '?'.
    if (tk.text == "?") {
      // Walk back to the statement boundary at group level.
      std::size_t b = i;
      std::size_t depth = 0;
      while (b > ctx.begin) {
        --b;
        const Token& t = toks[b];
        if (t.kind != TokKind::kPunct) continue;
        if (t.text == ")" || t.text == "]" || t.text == "}") ++depth;
        else if (t.text == "(" || t.text == "[" || t.text == "{") {
          if (depth == 0) { ++b; break; }
          --depth;
        } else if ((t.text == ";" || t.text == ",") && depth == 0) {
          ++b;
          break;
        }
      }
      if (span_is_tainted(ctx, b, i, extra_tainting)) {
        report(tk.line, "secret-dependent ternary condition");
      }
      continue;
    }

    // Array subscript with a tainted index.
    if (tk.text == "[") {
      // Only subscripts (previous token ends an expression), not lambda
      // introducers or attributes.
      if (i == 0) continue;
      const Token& prev = toks[i - 1];
      const bool subscript =
          prev.kind == TokKind::kIdent ||
          (prev.kind == TokKind::kPunct &&
           (prev.text == "]" || prev.text == ")"));
      if (!subscript) continue;
      const std::size_t close = match_group(toks, i);
      if (close >= ctx.end) continue;
      if (span_is_tainted(ctx, i + 1, close, extra_tainting)) {
        report(tk.line, "secret-dependent array index");
      }
      continue;
    }

    // Variable-time BigInt division / modulo.
    if (tk.text == "/" || tk.text == "%") {
      // Nearest identifiers left and right of the operator.
      const auto neighbor_tainted = [&](int dir) {
        std::size_t k = i;
        int steps = 0;
        while (steps++ < 6) {
          if (dir < 0) {
            if (k == ctx.begin) return false;
            --k;
          } else {
            if (++k >= ctx.end) return false;
          }
          const Token& t = toks[k];
          if (t.kind == TokKind::kIdent) {
            if (ctx.clean[k] != 0) return false;
            return ctx.tainted.count(t.text) != 0 ||
                   builtin_secret_idents().count(t.text) != 0;
          }
          if (t.kind == TokKind::kPunct &&
              (t.text == "." || t.text == "->" || t.text == "::" ||
               t.text == "(" || t.text == ")")) {
            continue;
          }
          return false;
        }
        return false;
      };
      if (neighbor_tainted(-1) || neighbor_tainted(+1)) {
        report(tk.line,
               "variable-time BigInt division/modulo on secret data");
      }
      continue;
    }
  }

  // Calls: variable-time BigInt entry points and message writes.
  for (std::size_t i = ctx.begin + 1; i < ctx.end; ++i) {
    if (ctx.clean[i] != 0) continue;
    const Token& tk = toks[i];
    if (tk.kind != TokKind::kIdent) continue;
    if (i + 1 >= ctx.end || !is_punct(toks[i + 1], "(")) continue;
    const bool var_time = variable_time_calls().count(tk.text) != 0;
    const bool msg_write = tk.text.rfind("write_", 0) == 0;
    if (!var_time && !msg_write) continue;
    const std::size_t close = match_group(toks, i + 1);
    if (close >= ctx.end) continue;
    if (!span_is_tainted(ctx, i + 2, close, extra_tainting)) continue;
    if (var_time) {
      out.push_back({rel, tk.line, "PC008",
                     "variable-time BigInt entry point '" + tk.text +
                         "' called on secret data in " + fn_name +
                         " — make it constant-time or wrap the reviewed "
                         "release in pc_declassify(...)",
                     false});
    } else {
      out.push_back({rel, tk.line, "PC008",
                     "secret data written to a message via '" + tk.text +
                         "' in " + fn_name +
                         " — mask it first, or mark the reviewed release "
                         "with pc_declassify(...)",
                     false});
    }
  }
}

// Seeds the taint set for one function from built-ins, PC_SECRET params,
// and PC_SECRET fields of this file and the paired header.
void seed_taint(const FunctionModel& fn,
                const std::vector<FieldDecl>& fields,
                const std::vector<FieldDecl>& header_fields,
                BodyContext& ctx) {
  ctx.tainted.clear();
  for (const std::string& s : builtin_secret_idents()) ctx.tainted.insert(s);
  for (const ParamDecl& p : fn.params) {
    if (p.secret && !p.name.empty()) ctx.tainted.insert(p.name);
  }
  for (const FieldDecl& f : fields) {
    if (f.secret) ctx.tainted.insert(f.name);
  }
  for (const FieldDecl& f : header_fields) {
    if (f.secret) ctx.tainted.insert(f.name);
  }
  // PC_SECRET local declarations inside the body.
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = ctx.begin; i < ctx.end; ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "PC_SECRET") {
      continue;
    }
    const std::size_t stmt_end = statement_end(toks, i + 1, ctx.end);
    // Declarator: last identifier before '=', '(' , '{' or the ';'.
    std::size_t limit = stmt_end;
    for (std::size_t k = i + 1; k < stmt_end; ++k) {
      if (toks[k].kind == TokKind::kPunct &&
          (toks[k].text == "=" || toks[k].text == "(" ||
           toks[k].text == "{")) {
        limit = k;
        break;
      }
    }
    for (std::size_t k = limit; k-- > i + 1;) {
      if (toks[k].kind == TokKind::kIdent) {
        ctx.tainted.insert(toks[k].text);
        break;
      }
    }
  }
}

}  // namespace

void run_taint_analysis(const std::string& rel, const LexedFile& lex,
                        const FileModel& model,
                        const std::vector<FieldDecl>& header_fields,
                        std::vector<Finding>& out) {
  // Round 1 computes per-function "returns secret" summaries; round 2
  // re-runs with those summaries feeding call-site taint, then scans sinks.
  std::set<std::string> tainting_fns;
  for (int round = 0; round < 2; ++round) {
    std::set<std::string> next_tainting = tainting_fns;
    for (const FunctionModel& fn : model.functions) {
      BodyContext ctx;
      ctx.toks = &lex.tokens;
      ctx.begin = fn.body_begin;
      ctx.end = fn.body_end;
      compute_clean_spans(ctx);
      seed_taint(fn, model.fields, header_fields, ctx);
      for (int pass = 0; pass < 8; ++pass) {
        if (!propagate_once(ctx, tainting_fns)) break;
      }
      if (returns_tainted(ctx, tainting_fns)) {
        const std::size_t sep = fn.name.rfind("::");
        next_tainting.insert(sep == std::string::npos
                                 ? fn.name
                                 : fn.name.substr(sep + 2));
      }
      if (round == 1) {
        scan_sinks(rel, fn.name, ctx, tainting_fns, out);
      }
    }
    tainting_fns = std::move(next_tainting);
  }
}

}  // namespace pclint
