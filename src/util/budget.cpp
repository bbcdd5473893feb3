#include "util/budget.hpp"

#include <atomic>

namespace salign::util {

namespace {
std::atomic<const Budget*> g_current_budget{nullptr};
}  // namespace

const Budget* current_budget() {
  return g_current_budget.load(std::memory_order_relaxed);
}

ScopedBudget::ScopedBudget(const Budget* budget)
    : previous_(g_current_budget.exchange(budget, std::memory_order_relaxed)) {}

ScopedBudget::~ScopedBudget() {
  g_current_budget.store(previous_, std::memory_order_relaxed);
}

void poll_budget(std::string_view where) {
  if (const Budget* b = current_budget()) b->check(where);
}

}  // namespace salign::util
