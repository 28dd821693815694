// A minimal JSON value builder for the metrics exporter and the bench
// harnesses. Write-only: it builds and serialises JSON documents, it does
// not parse them. Numbers that are integral print without a decimal point
// so gas counts stay exact in the emitted files.

#ifndef ONOFFCHAIN_OBS_JSON_H_
#define ONOFFCHAIN_OBS_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace onoff::obs {

class Json {
 public:
  // Leaf constructors.
  Json() : kind_(Kind::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool v);
  static Json Int(int64_t v);
  static Json Uint(uint64_t v);
  static Json Num(double v);
  static Json Str(std::string v);
  static Json Object();
  static Json Array();

  // Object member insertion (keys keep insertion order). Returns *this for
  // chaining. Must only be called on an Object.
  Json& Set(const std::string& key, Json value);
  // Array append. Must only be called on an Array.
  Json& Push(Json value);

  // Serialises with two-space indentation when `pretty`, compact otherwise.
  std::string Dump(bool pretty = true) const;

 private:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kObject,
                    kArray };

  void DumpTo(std::string* out, bool pretty, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;  // object
  std::vector<Json> elements_;                         // array
};

}  // namespace onoff::obs

#endif  // ONOFFCHAIN_OBS_JSON_H_
