// Sanctioned patterns for lock_audit.py (never compiled): the
// annotated pth-style wrapper owns the synchronization, every mutable
// sibling is PTH_GUARDED_BY-annotated, atomic, const, or carries a
// reasoned allowlist entry in the fixture config.
#ifndef LOCK_GOOD_STORE_HH
#define LOCK_GOOD_STORE_HH

#include <atomic>
#include <string>
#include <vector>

class GoodStore
{
  public:
    void put(const std::string &line);

  private:
    const std::string path_;
    Mutex mtx_;
    std::vector<std::string> lines_ PTH_GUARDED_BY(mtx_);
    std::atomic<unsigned> hits_{0};
    std::vector<int> scratch_;
};

#endif // LOCK_GOOD_STORE_HH
