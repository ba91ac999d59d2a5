#include "rmcast/group.h"

#include <algorithm>
#include <unordered_map>

#include "common/panic.h"
#include "common/strings.h"

namespace rmc::rmcast {

std::string GroupMembership::validate() const {
  if (!group.addr.is_multicast()) {
    return str_format("group address %s is not multicast", group.addr.str().c_str());
  }
  if (group.port == 0) return "group port must be set";
  if (sender_control.port == 0) return "sender control port must be set";
  if (receiver_control.empty()) return "no receivers";
  std::unordered_map<net::Endpoint, std::size_t> seen;
  for (std::size_t i = 0; i < receiver_control.size(); ++i) {
    if (receiver_control[i].port == 0) {
      return str_format("receiver %zu control port must be set", i);
    }
    // Control endpoints are how peers are told apart on the wire: a
    // duplicate (or a clash with the sender) would deliver one node's
    // control traffic to another and silently corrupt the protocol.
    if (receiver_control[i] == sender_control) {
      return str_format("receiver %zu control endpoint %s collides with the sender's",
                        i, receiver_control[i].str().c_str());
    }
    auto [it, inserted] = seen.emplace(receiver_control[i], i);
    if (!inserted) {
      return str_format("receivers %zu and %zu share control endpoint %s", it->second,
                        i, receiver_control[i].str().c_str());
    }
  }
  return "";
}

SharedMembership::SharedMembership(GroupMembership membership) {
  std::string error = membership.validate();
  RMC_ENSURE(error.empty(), error);
  roster_ = std::make_shared<const GroupMembership>(std::move(membership));
}

std::string GroupDirectory::add(std::uint64_t id, const SharedMembership& membership) {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    RMC_ENSURE(groups_[g].first != id, "group id already registered");
    if (groups_[g].second->group == membership->group) {
      return str_format("group data endpoint %s collides with registered group %zu",
                        membership->group.str().c_str(), g);
    }
  }
  groups_.emplace_back(id, membership);
  return "";
}

void GroupDirectory::remove(std::uint64_t id) {
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if (it->first == id) {
      groups_.erase(it);
      return;
    }
  }
}

TreePosition tree_position(std::size_t id, std::size_t n, std::size_t height) {
  RMC_ENSURE(id < n, "node id out of range");
  RMC_ENSURE(height >= 1 && height <= n, "invalid tree height");
  TreePosition pos;
  pos.chain = id / height;
  pos.depth = id % height;
  pos.is_head = pos.depth == 0;
  pos.is_tail = pos.depth == height - 1 || id == n - 1;
  if (!pos.is_head) pos.predecessor = id - 1;
  if (!pos.is_tail) pos.successor = id + 1;
  return pos;
}

std::vector<std::size_t> tree_chain_heads(std::size_t n, std::size_t height) {
  std::vector<std::size_t> heads;
  for (std::size_t id = 0; id < n; id += height) heads.push_back(id);
  return heads;
}

std::size_t tree_chain_count(std::size_t n, std::size_t height) {
  return (n + height - 1) / height;
}

TreeLinks flat_tree_links(std::size_t id, std::size_t n, std::size_t height) {
  TreePosition pos = tree_position(id, n, height);
  TreeLinks links;
  links.has_parent = !pos.is_head;
  if (links.has_parent) links.parent = pos.predecessor;
  if (!pos.is_tail) links.children.push_back(pos.successor);
  return links;
}

TreeLinks binary_tree_links(std::size_t id, std::size_t n) {
  RMC_ENSURE(id < n, "node id out of range");
  TreeLinks links;
  links.has_parent = id != 0;
  if (links.has_parent) links.parent = (id - 1) / 2;
  if (2 * id + 1 < n) links.children.push_back(2 * id + 1);
  if (2 * id + 2 < n) links.children.push_back(2 * id + 2);
  return links;
}

std::size_t live_rank(const std::vector<std::size_t>& live, std::size_t id) {
  auto it = std::lower_bound(live.begin(), live.end(), id);
  RMC_ENSURE(it != live.end() && *it == id, "node is not in the live set");
  return static_cast<std::size_t>(it - live.begin());
}

namespace {

// Chain height clamped to what the live set can still fill.
std::size_t effective_height(std::size_t n_live, std::size_t height) {
  return std::max<std::size_t>(1, std::min(height, n_live));
}

// Maps a rank-space TreeLinks back to node-id space.
TreeLinks map_links(TreeLinks rank_links, const std::vector<std::size_t>& live) {
  TreeLinks links;
  links.has_parent = rank_links.has_parent;
  if (links.has_parent) links.parent = live[rank_links.parent];
  for (std::size_t child : rank_links.children) links.children.push_back(live[child]);
  return links;
}

}  // namespace

std::vector<std::size_t> tree_chain_heads_live(const std::vector<std::size_t>& live,
                                               std::size_t height) {
  RMC_ENSURE(!live.empty(), "live set is empty");
  std::vector<std::size_t> heads;
  const std::size_t h = effective_height(live.size(), height);
  for (std::size_t rank = 0; rank < live.size(); rank += h) {
    heads.push_back(live[rank]);
  }
  return heads;
}

TreeLinks flat_tree_links_live(std::size_t id, const std::vector<std::size_t>& live,
                               std::size_t height) {
  const std::size_t h = effective_height(live.size(), height);
  return map_links(flat_tree_links(live_rank(live, id), live.size(), h), live);
}

TreeLinks binary_tree_links_live(std::size_t id, const std::vector<std::size_t>& live) {
  return map_links(binary_tree_links(live_rank(live, id), live.size()), live);
}

}  // namespace rmc::rmcast
