#include "wfregs/runtime/history.hpp"

#include <sstream>
#include <stdexcept>

namespace wfregs {

int History::begin_op(ProcId proc, ObjectId object, PortId port, InvId inv,
                      std::size_t time) {
  OpRecord rec;
  rec.proc = proc;
  rec.object = object;
  rec.port = port;
  rec.inv = inv;
  rec.invoke_time = time;
  ops_.push_back(rec);
  return static_cast<int>(ops_.size()) - 1;
}

void History::end_op(int op_id, Val response, std::size_t time) {
  if (op_id < 0 || op_id >= static_cast<int>(ops_.size())) {
    throw std::out_of_range("History::end_op: bad op id");
  }
  auto& rec = ops_[static_cast<std::size_t>(op_id)];
  if (rec.response) {
    throw std::logic_error("History::end_op: op already completed");
  }
  rec.response = response;
  rec.response_time = time;
}

void History::truncate(std::size_t n) {
  if (n > ops_.size()) {
    throw std::out_of_range("History::truncate: size can only shrink");
  }
  ops_.resize(n);
}

void History::reopen_op(int op_id) {
  if (op_id < 0 || op_id >= static_cast<int>(ops_.size())) {
    throw std::out_of_range("History::reopen_op: bad op id");
  }
  auto& rec = ops_[static_cast<std::size_t>(op_id)];
  if (!rec.response) {
    throw std::logic_error("History::reopen_op: op is still pending");
  }
  rec.response.reset();
  rec.response_time = 0;
}

std::vector<OpRecord> History::ops_on(ObjectId object) const {
  std::vector<OpRecord> out;
  for (const OpRecord& rec : ops_) {
    if (rec.object == object) out.push_back(rec);
  }
  return out;
}

std::string History::to_string() const {
  std::ostringstream out;
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    const OpRecord& rec = ops_[k];
    out << "op" << k << ": proc " << rec.proc << " obj " << rec.object
        << " port " << rec.port << " inv " << rec.inv << " ["
        << rec.invoke_time << ", ";
    if (rec.response) {
      out << rec.response_time << "] -> " << *rec.response;
    } else {
      out << "...) pending";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace wfregs
