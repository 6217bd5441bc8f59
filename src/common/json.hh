/**
 * @file
 * Minimal JSON support for the harness's persistent artifacts: the
 * escaping/formatting helpers the campaign report writer uses, and a
 * small strict parser for reading campaign reports and result-store
 * journals back in.
 *
 * This is deliberately not a general-purpose JSON library: it parses
 * exactly the dialect the repo writes (objects, arrays, strings,
 * numbers, booleans, null; ASCII with \uXXXX escapes). Numbers keep
 * their source token so 64-bit integers (seeds, flip counts) round-trip
 * without passing through a double, and doubles written with
 * jsonDouble() reparse to the identical bit pattern.
 */

#ifndef PTH_COMMON_JSON_HH
#define PTH_COMMON_JSON_HH

#include <string>
#include <utility>
#include <vector>

#include "common/parse.hh"

namespace pth
{

/**
 * Escape a string for inclusion in a JSON string literal: quotes,
 * backslashes and control characters (the latter as \uXXXX).
 */
std::string jsonEscape(const std::string &s);

/**
 * Format a double with enough digits (%.17g) that parsing the token
 * back with strtod recovers the exact bit pattern — the property the
 * resume bit-identity guarantee rests on. Non-finite values, which
 * JSON cannot represent as numbers, are emitted as the strings
 * "nan"/"inf"/"-inf"; journal readers strtod them back.
 */
std::string jsonDouble(double value);

/** One parsed JSON value; object members keep insertion order. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isString() const { return kind_ == Kind::String; }
    bool isNumber() const { return kind_ == Kind::Number; }

    /** Boolean value; fallback when this is not a Bool. */
    bool asBool(bool fallback = false) const;

    /** Number as double; fallback when this is not a Number. */
    double asDouble(double fallback = 0.0) const;

    /**
     * Number as an unsigned integer of type T, read with parseWhole
     * from the source token so values above 2^53 survive. Returns
     * false, leaving out untouched, unless this is a Number written
     * as a whole decimal that fits T ("-5", "1.5", "3e0" and values
     * past T's range fail).
     */
    template <class T>
    bool asUnsigned(T &out) const
    {
        return kind_ == Kind::Number && parseWhole(scalar_, out);
    }

    /** String value (empty when this is not a String). */
    const std::string &asString() const { return scalar_; }

    /** Array elements (empty unless this is an Array). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in insertion order (empty unless an Object). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** First object member named key, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /**
     * Parse text as exactly one JSON value (surrounding whitespace
     * allowed, trailing garbage rejected). Returns false on any
     * syntax error, leaving out untouched — the result-store treats
     * that as a corrupt journal line and skips it.
     */
    static bool parse(const std::string &text, JsonValue &out);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool boolean_ = false;
    std::string scalar_;  //!< number token or decoded string value
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace pth

#endif // PTH_COMMON_JSON_HH
